//===- tests/TestParallelSweep.cpp - Parallel sweep determinism -----------===//
//
// SweepThreads must be a pure performance knob: for any worker count
// the collector reclaims exactly the same objects, reports exactly the
// same counters, and — because block dispositions are applied in
// sequential visit order after the parallel bodies — rebuilds its
// free lists in exactly the same order, so even future allocation
// addresses are identical.  These tests run identical workloads under
// SweepThreads {1, 2, 4} (and a MarkThreads cross-matrix) and require
// bit-identical results.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "structures/Grid.h"
#include "structures/ProgramT.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <vector>

using namespace cgc;

namespace {

GcConfig sweepConfig(unsigned SweepThreads, unsigned MarkThreads = 1) {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 64 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  Config.MarkThreads = MarkThreads;
  Config.SweepThreads = SweepThreads;
  return Config;
}

/// Window offsets of every currently allocated object, in address
/// order.  After a (non-lazy) collection this is the retained set.
std::vector<WindowOffset> retainedSet(Collector &GC) {
  std::vector<WindowOffset> Offsets;
  GC.forEachObject([&](void *Ptr, size_t, ObjectKind) {
    Offsets.push_back(GC.windowOffsetOf(Ptr));
  });
  return Offsets;
}

/// The counters that must be bit-identical for any sweep worker count.
void expectSameCycle(const CollectionStats &A, const CollectionStats &B,
                     const char *What) {
  EXPECT_EQ(A.ObjectsMarked, B.ObjectsMarked) << What;
  EXPECT_EQ(A.BytesMarked, B.BytesMarked) << What;
  EXPECT_EQ(A.ObjectsLive, B.ObjectsLive) << What;
  EXPECT_EQ(A.BytesLive, B.BytesLive) << What;
  EXPECT_EQ(A.ObjectsSweptFree, B.ObjectsSweptFree) << What;
  EXPECT_EQ(A.BytesSweptFree, B.BytesSweptFree) << What;
  EXPECT_EQ(A.SlotsPinned, B.SlotsPinned) << What;
  EXPECT_EQ(A.PagesReleased, B.PagesReleased) << What;
  EXPECT_EQ(A.RootHits, B.RootHits) << What;
  EXPECT_EQ(A.NearMisses, B.NearMisses) << What;
  EXPECT_EQ(A.HeapWordsScanned, B.HeapWordsScanned) << What;
}

struct SweepNode {
  SweepNode *Next;
  uint64_t Payload[5];
};

constexpr unsigned NumLiveAnchors = 8;

/// Allocates interleaved live and garbage lists across several size
/// classes, then drops the garbage: the post-mark heap has many blocks
/// whose sweeps free some, all, or none of their slots.  \p Live must
/// have NumLiveAnchors zeroed slots (zeroed, so no stale pointer from
/// an earlier collector run can retain anything).
void mixedWorkload(Collector &GC, void **Live) {
  for (unsigned List = 0; List != 24; ++List) {
    size_t Bytes = 16u << (List % 4); // 16, 32, 64, 128.
    void *Head = nullptr;
    for (unsigned I = 0; I != 300; ++I) {
      void **N = static_cast<void **>(GC.allocate(Bytes));
      ASSERT_NE(N, nullptr);
      N[0] = Head;
      Head = N;
    }
    if (List % 3 == 0)
      Live[List / 3] = Head; // One list in three stays reachable.
  }
}

} // namespace

TEST(ParallelSweep, ProgramTIdenticalAcrossThreadCounts) {
  ProgramTConfig TConfig;
  TConfig.NumLists = 40;
  TConfig.CellsPerList = 1250; // 10 KB lists.
  TConfig.MeasureCollections = 2;

  ProgramTResult Reference;
  CollectionStats ReferenceCycle;
  std::vector<WindowOffset> ReferenceRetained;
  for (unsigned Threads : {1u, 2u, 4u}) {
    Collector GC(sweepConfig(Threads));
    ProgramT T(GC, /*Stack=*/nullptr, TConfig);
    ProgramTResult Result = T.run();
    ASSERT_FALSE(Result.OutOfMemory);
    CollectionStats Cycle = GC.lastCollection();
    EXPECT_EQ(Cycle.SweepWorkers, Threads);
    std::vector<WindowOffset> Retained = retainedSet(GC);
    if (Threads == 1) {
      Reference = Result;
      ReferenceCycle = Cycle;
      ReferenceRetained = std::move(Retained);
      continue;
    }
    EXPECT_EQ(Result.ListsRetained, Reference.ListsRetained)
        << "SweepThreads=" << Threads;
    EXPECT_EQ(Result.LiveBytesAtEnd, Reference.LiveBytesAtEnd)
        << "SweepThreads=" << Threads;
    expectSameCycle(Cycle, ReferenceCycle, "program T");
    EXPECT_EQ(Retained, ReferenceRetained)
        << "retained-object sets differ at SweepThreads=" << Threads;
  }
}

TEST(ParallelSweep, GridQuadrantIdenticalAcrossThreadCounts) {
  // Figure-3 embedded grid, headers dropped, one planted interior
  // reference: sweeping frees three quadrants' worth of vertices
  // spread over many blocks.
  constexpr unsigned Rows = 48, Cols = 48;
  constexpr unsigned PinRow = 24, PinCol = 24;

  CollectionStats ReferenceCycle;
  std::vector<WindowOffset> ReferenceRetained;
  for (unsigned Threads : {1u, 2u, 4u}) {
    Collector GC(sweepConfig(Threads));
    EmbeddedGrid Grid(GC, Rows, Cols);
    uint64_t Planted = reinterpret_cast<uint64_t>(
        GC.pointerAtOffset(Grid.vertexOffset(PinRow, PinCol)));
    RootId Pin = GC.addRootRange(&Planted, &Planted + 1,
                                 RootEncoding::Native64,
                                 RootSource::Client, "planted");
    Grid.dropRoots();
    CollectionStats Cycle = GC.collect("grid-quadrant");
    EXPECT_EQ(Cycle.ObjectsLive,
              uint64_t(Rows - PinRow) * (Cols - PinCol));
    GC.verifyHeap();
    std::vector<WindowOffset> Retained = retainedSet(GC);
    if (Threads == 1) {
      ReferenceCycle = Cycle;
      ReferenceRetained = std::move(Retained);
    } else {
      expectSameCycle(Cycle, ReferenceCycle, "embedded grid");
      EXPECT_EQ(Retained, ReferenceRetained)
          << "retained-object sets differ at SweepThreads=" << Threads;
    }
    GC.removeRootRange(Pin);
  }
}

TEST(ParallelSweep, MarkSweepThreadMatrix) {
  // Every {MarkThreads, SweepThreads} combination must agree with the
  // fully sequential collector.
  CollectionStats ReferenceCycle;
  std::vector<WindowOffset> ReferenceRetained;
  bool HaveReference = false;
  for (unsigned Mark : {1u, 4u}) {
    for (unsigned Sweep : {1u, 3u, 4u}) {
      Collector GC(sweepConfig(Sweep, Mark));
      static void *Live[NumLiveAnchors];
      std::fill(std::begin(Live), std::end(Live), nullptr);
      GC.addRootRange(Live, Live + NumLiveAnchors,
                      RootEncoding::Native64, RootSource::StaticData,
                      "live-lists");
      mixedWorkload(GC, Live);
      CollectionStats Cycle = GC.collect("matrix");
      EXPECT_EQ(Cycle.MarkWorkers, Mark);
      EXPECT_EQ(Cycle.SweepWorkers, Sweep);
      GC.verifyHeap();
      std::vector<WindowOffset> Retained = retainedSet(GC);
      if (!HaveReference) {
        HaveReference = true;
        ReferenceCycle = Cycle;
        ReferenceRetained = std::move(Retained);
        continue;
      }
      expectSameCycle(Cycle, ReferenceCycle,
                      "mark/sweep thread matrix");
      EXPECT_EQ(Retained, ReferenceRetained)
          << "MarkThreads=" << Mark << " SweepThreads=" << Sweep;
    }
  }
}

TEST(ParallelSweep, FreeListOrderIdentical) {
  // The strongest determinism property: after a parallel sweep the
  // rebuilt free lists hand out the same addresses in the same order
  // as after a sequential sweep.
  std::vector<WindowOffset> ReferenceAllocs;
  for (unsigned Threads : {1u, 4u}) {
    Collector GC(sweepConfig(Threads));
    static void *Live[NumLiveAnchors];
    std::fill(std::begin(Live), std::end(Live), nullptr);
    GC.addRootRange(Live, Live + NumLiveAnchors, RootEncoding::Native64,
                    RootSource::StaticData, "live-lists");
    mixedWorkload(GC, Live);
    GC.collect("rebuild-free-lists");
    // Allocation replay: same sizes, must yield same addresses.
    std::vector<WindowOffset> Allocs;
    for (unsigned I = 0; I != 2000; ++I) {
      void *P = GC.allocate(16u << (I % 4));
      ASSERT_NE(P, nullptr);
      Allocs.push_back(GC.windowOffsetOf(P));
    }
    if (Threads == 1)
      ReferenceAllocs = std::move(Allocs);
    else
      EXPECT_EQ(Allocs, ReferenceAllocs)
          << "allocation addresses diverge after parallel sweep";
  }
}

TEST(ParallelSweep, LazySweepSemanticsUnchanged) {
  // Under LazySweep the collection-time Sweep phase only queues blocks,
  // so SweepThreads must be a no-op there: identical pending counts,
  // identical counters, and identical post-drain heaps.
  uint64_t ReferencePending = 0;
  CollectionStats ReferenceCycle;
  std::vector<WindowOffset> ReferenceRetained;
  for (unsigned Threads : {1u, 4u}) {
    GcConfig Config = sweepConfig(Threads);
    Config.LazySweep = true;
    Collector GC(Config);
    static void *Live[NumLiveAnchors];
    std::fill(std::begin(Live), std::end(Live), nullptr);
    GC.addRootRange(Live, Live + NumLiveAnchors,
                    RootEncoding::Native64, RootSource::StaticData,
                    "live-lists");
    mixedWorkload(GC, Live);
    CollectionStats Cycle = GC.collect("lazy");
    EXPECT_EQ(Cycle.SweepWorkers, Threads)
        << "worker count is still recorded, even when lazy queueing "
           "leaves no parallel work";
    uint64_t Pending = GC.objectHeap().pendingSweepCount();
    EXPECT_GT(Pending, 0u) << "lazy collection must queue blocks";

    // Interleave: drain some of the queue through allocation, then
    // finish the rest explicitly.
    for (unsigned I = 0; I != 500; ++I)
      ASSERT_NE(GC.allocate(16u << (I % 4)), nullptr);
    GC.objectHeap().finishPendingSweeps();
    EXPECT_EQ(GC.objectHeap().pendingSweepCount(), 0u);
    GC.verifyHeap();
    std::vector<WindowOffset> Retained = retainedSet(GC);
    if (Threads == 1) {
      ReferencePending = Pending;
      ReferenceCycle = Cycle;
      ReferenceRetained = std::move(Retained);
    } else {
      EXPECT_EQ(Pending, ReferencePending);
      expectSameCycle(Cycle, ReferenceCycle, "lazy sweep");
      EXPECT_EQ(Retained, ReferenceRetained);
    }
  }
}

TEST(ParallelSweep, ThreadCountClampsAndReports) {
  Collector GC(sweepConfig(1));
  EXPECT_EQ(GC.sweepThreads(), 1u);
  GC.setSweepThreads(0); // 0 means "default": the sequential sweep.
  EXPECT_EQ(GC.sweepThreads(), 1u);
  GC.setSweepThreads(4);
  EXPECT_EQ(GC.sweepThreads(), 4u);
  (void)GC.allocate(64);
  CollectionStats Cycle = GC.collect("clamp");
  EXPECT_EQ(Cycle.SweepWorkers, 4u);
  // Absurd requests clamp to the pool's ceiling rather than spawning
  // unbounded threads.
  GC.setSweepThreads(100000);
  Cycle = GC.collect("clamp-high");
  EXPECT_LE(Cycle.SweepWorkers, 64u);
  EXPECT_GE(Cycle.SweepWorkers, 1u);
}

TEST(ParallelSweep, PinnedSlotsSurviveParallelSweep) {
  // A false reference to a freed slot pins it; pinning happens inside
  // the parallel bodies and must agree with the sequential sweep.
  for (unsigned Threads : {1u, 4u}) {
    Collector GC(sweepConfig(Threads));
    void *Doomed[64];
    for (auto &P : Doomed) {
      P = GC.allocate(32);
      ASSERT_NE(P, nullptr);
    }
    // Keep pointers to freed slots visible as roots.
    static void *FalseRefs[8];
    for (unsigned I = 0; I != 8; ++I)
      FalseRefs[I] = Doomed[I * 8];
    GC.addRootRange(FalseRefs, FalseRefs + 8, RootEncoding::Native64,
                    RootSource::StaticData, "false-refs");
    // First collection: everything is still referenced via FalseRefs
    // or dead; the 8 referenced slots stay live, 56 are freed.
    CollectionStats First = GC.collect("pin-setup");
    EXPECT_EQ(First.ObjectsLive, 8u);
    // Drop the objects but keep the addresses: next collection sees
    // marked-but-free slots only if the slots were freed... instead,
    // free them explicitly so the still-rooted addresses pin them.
    for (unsigned I = 0; I != 8; ++I)
      GC.deallocate(FalseRefs[I]);
    CollectionStats Second = GC.collect("pin");
    EXPECT_EQ(Second.SlotsPinned, 8u)
        << "rooted addresses of freed slots pin them (SweepThreads="
        << Threads << ")";
    GC.verifyHeap();
  }
}
