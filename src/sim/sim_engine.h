// SimEngine: the discrete-event simulator as a constructed-once,
// resettable engine (the cached-structure treatment that
// analysis::ThroughputEngine gave the period analysis).
//
// Construction flattens the whole System once into static tables — flat
// actor/channel arrays with CSR in/out adjacency, per-node arbitration
// rings, per-app repetition counts — and validates it once. After that,
// repeated simulations only clear dynamic state:
//
//   SimEngine engine(sys);          // O(system): flatten + validate
//   engine.reset();                 // arm a full-system run
//   SimResult full = engine.run({});
//   engine.reset({0, 2});           // arm a use-case-restricted run
//   SimResult uc = engine.run({});  // == simulate(sys.restrict_to({0,2}))
//
// reset(uc) restricts zero-copy: it activates the selected applications via
// the flat-id remap tables (no graph or mapping copies, no revalidation)
// and rebuilds the active arbitration rings in use-case order, so event
// creation order — and therefore every tie-break — matches a fresh
// simulation of the materialised restriction exactly. Results are bitwise
// identical to sim::simulate on the equivalent (restricted) System; the
// free function is now a thin shim over this class.
//
// Steady-state serving contract: every structure a reset touches is sized
// once at construction. The arbitration rings live in one CSR arena sized
// for the full system and every reset(uc) rebuilds them in place, so a
// reset to any valid use-case — seen before or not — performs ZERO heap
// allocations. The event queue / ready lists / iteration-time and trace
// arenas keep their capacity across resets, and run_view() returns the
// results as views into engine-owned storage, so once a use-case's runs
// have grown those arenas every further reset(uc) + run_view() is
// allocation-free (tests/test_steady_state_alloc.cpp asserts both with an
// instrumented allocator; bench_steady_state tracks it per PR). The
// value-returning run() stays as a deep-copying shim.
//
// Interconnect: when the platform carries a topology (platform::Topology),
// every channel whose producer and consumer sit on different nodes is
// routed over its deterministic link sequence at build time. A producer
// firing then emits a *message* instead of depositing tokens instantly;
// the message queues FCFS at each link in turn (per-link vector + head
// cursor rings, pooled message arena), occupies each link for the
// precomputed per-hop service time, and deposits the tokens at the
// consumer when the last hop completes. Link events ride the same
// preallocated heap, tagged in the high bit of Event::actor, and count
// toward events_processed; per-link busy fractions are reported as
// SimResultView::link_utilisation. Links arbitrate FCFS under every
// arbitration mode (node arbitration stays as configured). With no
// topology attached no message is ever created and runs are bitwise
// identical to the pre-interconnect engine.
//
// An engine is a mutable session object: not thread-safe. Sharded callers
// (api::Workbench sweeps) keep one engine per worker. Copying an engine
// clones its cached structure — that is how worker clones are made.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "platform/system.h"
#include "platform/system_view.h"
#include "sdf/exec_time.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace procon::sim {

/// \brief Resettable discrete-event simulation engine with cached structure.
///
/// Flattens a platform::System (or a restriction view of one) once into
/// flat CSR tables and serves repeated simulations through
/// reset()/reset(uc)/run()/run_view(). Results are bitwise identical to a
/// fresh sim::simulate of the materialised (restricted) system, for every
/// arbitration mode, seed and execution-time model.
///
/// Determinism: simultaneous events are processed in creation order and all
/// arbitration tie-breaks follow use-case order, so a run is a pure
/// function of (structure, active use-case, options) — never of engine
/// history.
///
/// Thread-safety: a SimEngine is a mutable session object; concurrent calls
/// on one engine are not allowed. Sharded callers clone one engine per
/// worker (copying clones the cached structure).
class SimEngine {
 public:
  /// \brief Flattens and validates `sys`.
  ///
  /// Throws sdf::GraphError on validate() failures. The system is copied
  /// into flat tables; the engine does not retain a reference. Arms a
  /// full-system run (no reset() needed before the first run()).
  /// \param sys the applications + platform + mapping to simulate
  explicit SimEngine(const platform::System& sys);

  /// \brief Builds the engine over the applications a restriction view
  /// selects.
  ///
  /// Only the selected applications are validated and flattened
  /// (O(restriction), like building from the materialised copy, without the
  /// copy). Duplicate view entries become independent flat applications,
  /// exactly as restrict_to would duplicate the graph. The engine's
  /// application ids are the *view's* ids 0..k-1; reset(uc) indexes that
  /// space. The view (and its parent) are not retained.
  /// \param view zero-copy restriction selecting the applications to flatten
  explicit SimEngine(const platform::SystemView& view);

  /// \brief Number of applications of the underlying system.
  /// \return the flattened application count (view ids 0..app_count()-1)
  [[nodiscard]] std::size_t app_count() const noexcept {
    return app_actor_base_.size() - 1;
  }

  /// \brief Applications active in the currently armed/last run.
  /// \return the active use-case, in use-case order
  [[nodiscard]] const platform::UseCase& active_use_case() const noexcept {
    return active_;
  }

  /// \brief Arms a full-system run: every application active, all dynamic
  /// state cleared (tokens to initial marking, queues and metrics emptied).
  void reset();

  /// \brief Arms a run restricted to `uc`.
  ///
  /// Results are indexed in use-case order, exactly like
  /// simulate(sys.restrict_to(uc), opts). The use-case's arbitration rings
  /// are rebuilt in the construction-sized arena and dynamic state is
  /// cleared — zero heap allocations for any valid use-case.
  /// \param uc engine app ids, unique and in range — throws sdf::GraphError
  ///        otherwise and leaves the engine disarmed (run() then throws
  ///        until a successful reset)
  void reset(const platform::UseCase& uc);

  /// \brief Runs until the horizon and returns an owning deep copy of the
  /// results.
  ///
  /// Compatibility shim over run_view(): identical values, plus one deep
  /// copy of the per-app metrics, iteration times and trace into a
  /// standalone SimResult. Steady-state callers that can tolerate
  /// engine-owned storage should prefer run_view().
  ///
  /// Consumes the armed state: a second run without an intervening reset()
  /// throws sdf::GraphError (dynamic state is spent, rerunning it would not
  /// be a simulation from time zero).
  /// \param opts horizon, arbitration, execution-time models, trace flag.
  ///        Throws std::invalid_argument for a non-positive horizon and
  ///        sdf::GraphError for execution-time model mismatches
  ///        (opts.exec_models entries pair with *active* applications, in
  ///        use-case order).
  /// \return owning per-application results, in use-case order
  [[nodiscard]] SimResult run(const SimOptions& opts = {});

  /// \brief Runs until the horizon and returns views into engine-owned
  /// storage — the allocation-free steady-state serving path.
  ///
  /// Same contract as run() (armed-state consumption, option validation,
  /// bitwise-identical numbers), but the returned SimResultView only
  /// borrows the engine's preallocated result arenas: per-actor stats,
  /// iteration times, trace and node utilisation are spans. The view is
  /// valid until the next reset()/run_view() call or engine destruction;
  /// call SimResultView::materialise() to keep a copy.
  /// \param opts same options as run()
  /// \return per-application result views, in use-case order
  [[nodiscard]] SimResultView run_view(const SimOptions& opts = {});

 private:
  enum class ActorState : std::uint8_t { Idle, Queued, Running };

  struct Event {
    sdf::Time time = 0;
    std::uint64_t seq = 0;  // creation order; makes simultaneous events stable
    std::uint32_t actor = 0;

    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Arbitration rings of the active use-case in CSR form: ring of node n
  /// is flat[start[n] .. start[n+1]), members in use-case order then local
  /// id — the exact push order a fresh restricted build would produce.
  struct RingSet {
    std::vector<std::uint32_t> start;  // node -> offset (size nodes+1)
    std::vector<std::uint32_t> flat;   // active flat actor ids (size actors)
  };

  /// One inter-node transfer in flight on the interconnect: the producing
  /// channel and the hop it currently occupies. Pooled with a free list so
  /// warm runs reuse capacity (zero-alloc steady state).
  struct Msg {
    std::uint32_t chan = 0;
    std::uint32_t hop = 0;
  };

  void build(const platform::SystemView& view);
  void bind_options(const SimOptions& opts);
  /// Rebuilds rings_ in place for the active use-case.
  void build_rings();
  [[nodiscard]] std::span<const std::uint32_t> ring(platform::NodeId node) const {
    return {rings_.flat.data() + rings_.start[node],
            rings_.start[node + 1] - rings_.start[node]};
  }

  [[nodiscard]] sdf::Time draw_exec(std::uint32_t a);
  [[nodiscard]] bool inputs_available(std::uint32_t a) const;
  void consume_inputs(std::uint32_t a);
  void schedule_completion(std::uint32_t a, sdf::Time t);
  [[nodiscard]] std::pair<sdf::Time, sdf::Time> tdma_completion(
      std::uint32_t a, sdf::Time t, sdf::Time demand) const;
  void try_enqueue(std::uint32_t a, sdf::Time t);
  [[nodiscard]] std::uint32_t pick_next(platform::NodeId node);
  void try_dispatch(platform::NodeId node, sdf::Time t);
  void on_completion(std::uint32_t a, sdf::Time t);
  void send_message(std::uint32_t chan, sdf::Time t);
  void try_dispatch_link(platform::LinkId link, sdf::Time t);
  void on_link_completion(std::uint32_t msg, sdf::Time t);
  void update_iterations(std::uint32_t active_app, sdf::Time t);
  [[nodiscard]] SimResultView finalise_view(std::uint64_t processed);

  // --- static structure (built once per system) ----------------------------
  std::uint32_t actor_count_ = 0;  // flat actors over *all* applications
  std::uint32_t node_count_ = 0;
  std::vector<std::uint32_t> app_actor_base_;  // app -> first flat actor (size A+1)
  std::vector<sdf::AppId> app_of_;             // flat actor -> parent app
  std::vector<sdf::ActorId> local_of_;         // flat actor -> app-local id
  std::vector<sdf::Time> exec_;                // flat actor -> tau
  std::vector<platform::NodeId> node_of_;      // flat actor -> node
  std::vector<std::uint64_t> reps_;            // flat actor -> q(a)
  platform::UseCase full_uc_;                  // 0..A-1, built once for reset()

  // Channels, flattened, with CSR in/out adjacency per actor.
  std::vector<std::uint64_t> init_tokens_;     // flat channel -> initial marking
  std::vector<std::uint32_t> chan_cons_;       // consumption rate
  std::vector<std::uint32_t> chan_prod_;       // production rate
  std::vector<std::uint32_t> chan_dst_;        // consumer flat actor
  std::vector<std::uint32_t> in_start_;        // actor -> offset (size actors+1)
  std::vector<std::uint32_t> in_list_;         // flat channel ids
  std::vector<std::uint32_t> out_start_;
  std::vector<std::uint32_t> out_list_;

  // Interconnect routes, baked at build time from the platform's topology:
  // channel c crosses links route_links_[route_start_[c] .. route_start_[c+1])
  // in order, occupying hop k for route_service_[k] time units (the transfer
  // of chan_prod_[c] tokens). Channels with an empty range (same node, or no
  // topology) deposit tokens instantly — the legacy model, bit-identical.
  std::uint32_t link_count_ = 0;
  std::vector<std::uint32_t> route_start_;     // flat channel -> offset (size C+1)
  std::vector<platform::LinkId> route_links_;
  std::vector<sdf::Time> route_service_;

  // --- per-reset state (active restriction) --------------------------------
  platform::UseCase active_;                   // active apps, use-case order
  std::vector<std::uint32_t> active_index_;    // parent app -> active slot or ~0
  RingSet rings_;                              // active use-case's rings
  std::vector<std::uint32_t> ring_cursor_;     // node -> fill cursor (build_rings)
  bool armed_ = false;

  // --- per-run option bindings ---------------------------------------------
  SimOptions opts_;  // scalar fields only; models are bound through dist_
  std::vector<sdf::Time> slot_len_;            // flat actor -> TDMA slot
  std::vector<const sdf::ExecTimeDistribution*> dist_;  // nullptr = fixed time
  util::Rng sample_rng_{0};

  // --- dynamic state (cleared by reset, capacity kept) ---------------------
  std::vector<std::uint64_t> tokens_;
  std::vector<ActorState> state_;
  std::vector<sdf::Time> ready_time_;
  /// Per-node FCFS ready list: a vector + head cursor (pop never shrinks,
  /// reset rewinds), so steady-state operation does not allocate.
  std::vector<std::vector<std::uint32_t>> fcfs_queue_;
  std::vector<std::size_t> fcfs_head_;
  std::vector<std::size_t> rr_next_;           // node -> ring cursor
  std::vector<std::uint8_t> node_busy_;
  std::vector<sdf::Time> node_busy_time_;
  std::vector<Event> events_;                  // binary min-heap (std::*_heap)
  std::uint64_t next_seq_ = 0;

  // Interconnect dynamic state: per-link FCFS queues of in-flight messages
  // (vector + head cursor, like the node ready lists) and a pooled message
  // arena with a free list. Links arbitrate FCFS under every arbitration
  // mode; their events ride the one preallocated heap, tagged by the high
  // bit of Event::actor.
  std::vector<Msg> msg_pool_;
  std::vector<std::uint32_t> msg_free_;
  std::vector<std::vector<std::uint32_t>> link_queue_;
  std::vector<std::size_t> link_head_;
  std::vector<std::uint8_t> link_busy_;
  std::vector<sdf::Time> link_busy_time_;

  // Metrics arenas (flat-actor arrays are full-size; per-app arrays use the
  // first active-count slots and never shrink, so capacity survives resets).
  std::vector<std::uint64_t> completions_;
  std::vector<ActorStats> actor_stats_;
  std::vector<std::uint64_t> app_iterations_;        // per active app
  std::vector<std::vector<sdf::Time>> iteration_times_;  // per active app
  std::vector<TraceEvent> trace_;

  // Result-view arenas (reused per run; run_view returns spans over these).
  std::vector<AppSimView> view_apps_;
  std::vector<double> node_util_;
  std::vector<double> link_util_;
};

/// \brief Runs the applications selected by a zero-copy restriction view.
///
/// One-shot convenience: builds a SimEngine over the view per call. Results
/// are indexed in view order, exactly like simulate(view.materialise()).
/// \param view restriction selecting the applications to run
/// \param opts simulation options (see SimOptions)
/// \return owning per-application results, in view order
[[nodiscard]] SimResult simulate(const platform::SystemView& view,
                                 const SimOptions& opts = {});

}  // namespace procon::sim
