/**
 * @file
 * The outside-in layer ladder of a traced run.
 *
 * The ladder captures the reference stream the workload's own
 * simulator consumes at its ladder point (after warmup), then times
 * each layer's public functions over that same stream, every layer
 * fed the output of the one outside it:
 *
 *   replay      ArenaSource::nextBatchPacked drain (decode: the v3
 *               StreamSource drain of the same stream)
 *   +MMU        Mmu::translateInst/Data per reference
 *   +L1 tag     TagStore lookup/allocate at the L1 geometry
 *   +L2 tag     TagStore lookup/allocate on the L1 miss stream
 *   +WB         WriteBuffer::push / drainAll on the store stream
 *   CacheSystem ifetchT/loadT/storeT<Spec>, the spec the config
 *               selects (the whole memory side, MMU included)
 *   Simulator   Simulator::run over the same point
 *
 * Self times: sched = sim - access - replay, and whatever of the
 * CacheSystem's time the isolated MMU/tag/write-buffer kernels do not
 * explain is layers.unattributed_ns_per_ref.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>

#include "report.hh"
#include "workloads.hh"

namespace perfbench
{

/**
 * Run the ladder on @p w's ladder point and return its per-layer
 * metrics.  Temporary v3 files go under @p scratch_dir, which the
 * caller removes.  Spans go to @p log under its current span.
 */
Metrics runLadder(const Workload &w, SpanLog &log,
                  const std::string &scratch_dir);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
