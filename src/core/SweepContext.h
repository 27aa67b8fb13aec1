//===- core/SweepContext.h - Parallel sweep phase --------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Sweep phase, run on the collector's persistent worker pool.
///
/// Sweeping decomposes cleanly (see heap/ObjectHeap.h):
///
///   1. beginSweep — sequential prologue: class lists emptied, large
///      and uncollectable blocks handled inline, small collectable
///      blocks gathered into a plan (or queued, under LazySweep).
///   2. per-block bodies — sweepSmallBlockBody on each planned block.
///      A body touches only its block's own metadata and pages, so the
///      plan shards across pool workers with no synchronization beyond
///      the pool's job barrier.  Each worker accumulates counters into
///      a private SweepResult and records each block's disposition and
///      freed bytes into its preassigned slot of a shared outcome
///      array (disjoint indices — no races).
///   3. sequential merge — dispositions applied in plan (block-id)
///      order, exactly the order the sequential sweep would, so class
///      lists and recycled block ids come out bit-identical for any
///      worker count; per-worker results summed.
///   4. finishSweep — sequential epilogue: large releases, then the
///      page runs of every block released since step 1 freed in one
///      batch (one decommit per run of adjacent pages), stats.
///
/// With SweepThreads == 1 the context calls the per-block steps inline
/// on the caller's thread, reproducing ObjectHeap::sweep() exactly.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_SWEEPCONTEXT_H
#define CGC_CORE_SWEEPCONTEXT_H

#include "core/GcConfig.h"
#include "core/GcStats.h"
#include "core/GcWorkerPool.h"
#include "heap/ObjectHeap.h"

namespace cgc {

class SweepContext {
public:
  static constexpr unsigned MaxWorkers = GcWorkerPool::MaxWorkers;

  SweepContext(ObjectHeap &Heap, GcWorkerPool &Pool, const GcConfig &Config)
      : Heap(Heap), Pool(Pool), Config(Config) {}

  /// Runs a complete sweep on GcConfig::SweepThreads workers and
  /// \returns the merged result.  Records the worker count in \p Stats.
  SweepResult run(CollectionStats &Stats);

private:
  ObjectHeap &Heap;
  GcWorkerPool &Pool;
  const GcConfig &Config;
};

} // namespace cgc

#endif // CGC_CORE_SWEEPCONTEXT_H
