// procon_perfbench — one workload per invocation, one JSON record on stdout.
//
//   procon_perfbench --workload design|admission|serve --seed N
//                    --seconds S --trace 0|1 [--design-threads N]
//
// The record carries the operation counts, the output-check verdict, the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run),
// the workload's own metrics under their documented names, and the
// settings and machine description a number needs to be compared.
// perfbench/run.py builds this binary and turns the record into the
// benchmark's result line.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "procon_perfbench: " << why
            << "\nusage: procon_perfbench --workload design|admission|serve "
               "--seed N --seconds S --trace 0|1 [--design-threads N]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = std::strtol(v.c_str(), &end, 10) != 0;
    } else if (flag == "--design-threads") {
      a.design_threads = std::strtoull(v.c_str(), &end, 10);
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') usage("bad value for " + flag);
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 120.0) usage("--seconds must be in (0, 120]");
  if (a.design_threads < 1 || a.design_threads > 64) usage("bad --design-threads");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric_map(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ",";
    out += quoted(ms[i].name) + ":{\"value\":" + number(ms[i].value) +
           ",\"unit\":" + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // A write to a closed socket or pipe must fail with EPIPE, not end the run.
  std::signal(SIGPIPE, SIG_IGN);
  Result r;
  try {
    if (args.workload == "design") {
      r = perfbench::run_design(args);
    } else if (args.workload == "admission") {
      r = perfbench::run_admission(args);
    } else if (args.workload == "serve") {
      r = perfbench::run_serve(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "procon_perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  // Metrics the mode must report: every end-to-end one untraced, every
  // per-layer one traced (a layer the workload bypasses reads 0).
  std::vector<Metric> metrics;
  if (args.trace) {
    for (const auto& [name, unit] : perfbench::layer_metrics()) {
      Metric m{name, 0.0, unit};
      for (const Metric& l : r.layers) {
        if (l.name == name) m.value = l.value;
      }
      metrics.push_back(m);
    }
  } else {
    for (const auto& [name, unit] : perfbench::e2e_metrics()) {
      bool found = false;
      for (const Metric& e : r.end_to_end) {
        if (e.name == name) {
          metrics.push_back(e);
          found = true;
        }
      }
      if (!found) r.fail("end-to-end metric " + name + " not measured");
    }
  }
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  for (const Metric& m : r.detail) finite = finite && std::isfinite(m.value);
  if (!finite) r.fail("a metric is not finite");
  for (const std::string& f : r.failures) std::cerr << "check failed: " << f << "\n";

  std::ostringstream out;
  out << "{\"record\":\"procon-perfbench\",\"workload\":" << quoted(args.workload)
      << ",\"seed\":" << args.seed << ",\"seconds\":" << number(args.seconds)
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"correct\":" << (r.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"metrics\":" << metric_map(metrics)
      << ",\"detail\":" << metric_map(r.detail) << ",\"settings\":{";
  for (std::size_t i = 0; i < r.settings.size(); ++i) {
    if (i > 0) out << ",";
    out << quoted(r.settings[i].first) << ":" << quoted(r.settings[i].second);
  }
  out << "},\"meta\":{\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << quoted(cpu_model())
      << ",\"compiler\":" << quoted(__VERSION__)
      << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE) << "},\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out << ",";
    out << quoted(r.failures[i]);
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return 0;
}
