#ifndef POLYDAB_OBS_TRACE_CANON_H_
#define POLYDAB_OBS_TRACE_CANON_H_

#include "common/status.h"
#include "obs/trace.h"

/// \file trace_canon.h
/// Trace canonicalizers: the passes that map a trace of a run with an
/// invisible mode switched on onto the oracle run's trace.
///
/// A real-thread run (sim/simulation.h, threads > 0; docs/CONCURRENCY.md)
/// keeps the virtual clock, every protocol decision and every trace
/// emission on the event-loop thread: pool workers solve GPs with no
/// trace attached, and the event loop emits each planner_replan event at
/// its serial slot between recompute_start and recompute_end. So a raw
/// threaded trace differs from the threads = 0 oracle only in its `rt_*`
/// info keys.

namespace polydab::obs {

/// In-place canonicalization of a threaded trace: drops the `rt_*` info
/// keys, after which the trace is byte-identical (TraceToJsonLines) to
/// the oracle's for the same seed and config — the property
/// tests/threaded_diff_test.cc pins. Idempotent, and a no-op on serial
/// traces. InvalidArgument when any event carries a `thread` tag, which
/// no run of this engine emits.
Status CanonicalizeThreadedTrace(TraceFile* trace);

/// Remove the crash-recovery bookkeeping events (checkpoint_begin,
/// checkpoint_end, coord_crash, recovery_replay) from \p trace, renumber
/// the survivors 1..N in order, and remap their cause references
/// (docs/RECOVERY.md). Recovery events only ever cite other recovery
/// events, so the remap never dangles on a well-formed trace; a surviving
/// event citing a removed one is InvalidArgument. After this pass, a
/// crashed-and-restarted run's merged trace is byte-identical
/// (TraceToJsonLines) to the uninterrupted oracle's — the property
/// tests/recovery_diff_test.cc pins. No-op (beyond the defensive id sort)
/// when the trace has no recovery events.
Status StripRecoveryEvents(TraceFile* trace);

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_TRACE_CANON_H_
