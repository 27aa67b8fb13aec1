//===- tests/TestThreadCache.cpp - Per-thread allocation caches -----------===//
//
// The lock-free allocation fast path: batch refills under the heap
// lock, exact reservation accounting (the "cache-slot debt" ledger),
// the flush-at-handshake rule that keeps retained sets exact, and the
// guarded-mode interaction (caches off, threads still fine).
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "core/GcObserver.h"
#include "core/ThreadRegistry.h"
#include "heap/ThreadCache.h"
#include <atomic>
#include <gtest/gtest.h>
#include <optional>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

GcConfig testConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = uint64_t(16) << 20;
  Config.MaxHeapBytes = uint64_t(64) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0); // Never auto-collect.
  return Config;
}

struct RefillCounter final : GcObserver {
  std::atomic<uint64_t> Events{0};
  std::atomic<uint64_t> Slots{0};
  void onThreadCacheRefill(unsigned, unsigned Count) override {
    Events.fetch_add(1, std::memory_order_relaxed);
    Slots.fetch_add(Count, std::memory_order_relaxed);
  }
};

} // namespace

// The refill/take arithmetic is exact and observable: the very first
// allocation misses (no block yet) and goes raw, topping the cache up
// afterwards; every later allocation is a lock-free hit or a refill.
TEST(ThreadCache, FastPathHitsAndBatchRefills) {
  GcConfig Config = testConfig();
  Config.ThreadCacheSlots = 8;
  Collector GC(Config);
  RefillCounter Refills;
  GcObserverId Obs = GC.addObserver(&Refills);
  std::thread Worker([&GC] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    MutatorThread *Self = ThreadRegistry::current();
    ASSERT_NE(Self, nullptr);
    ASSERT_NE(Self->Cache, nullptr);
    EXPECT_EQ(Self->Cache->slotsPerClass(), 8u);
    std::vector<void *> Keep;
    for (int I = 0; I != 40; ++I) {
      void *P = GC.allocate(48);
      ASSERT_NE(P, nullptr);
      Keep.push_back(P);
    }
    // Allocation 1 went raw (fresh heap, refill had nothing to pop)
    // then refilled 8; allocations 2..40 are 39 cache hits fed by 5
    // batches of 8, one slot left over.
    EXPECT_EQ(Self->CacheAllocs.load(), 39u);
    EXPECT_EQ(Self->Cache->hits(), 39u);
    EXPECT_EQ(Self->Cache->refills(), 5u);
    EXPECT_EQ(Self->Cache->slotsRefilled(), 40u);
    EXPECT_EQ(Self->Cache->cachedSlots(), 1u);
  });
  Worker.join();
  EXPECT_EQ(Refills.Events.load(), 5u);
  EXPECT_EQ(Refills.Slots.load(), 40u);
  GC.removeObserver(Obs);
}

// The issue's core invariant: flushing caches at the handshake means a
// collection sees exactly the objects clients really hold.  100 rooted
// allocations through a warm cache census as exactly 100 live objects,
// cached-but-unconsumed slots notwithstanding.
// A cache miss on a fresh heap falls back to the heap for one object;
// that allocation counts toward StackClearEveryNAllocs exactly once, as
// it does without a registered thread.
TEST(ThreadCache, MissCountsOneStackClearAllocation) {
  for (bool Typed : {false, true}) {
    for (bool Registered : {false, true}) {
      SCOPED_TRACE(testing::Message() << (Typed ? "allocateTyped" : "allocate")
                                      << (Registered ? " registered"
                                                     : " sequential"));
      GcConfig Config = testConfig();
      Config.StackClearing = StackClearMode::Cheap;
      Config.StackClearEveryNAllocs = 1;
      Collector GC(Config);
      LayoutId Layout =
          GC.registerObjectLayout({true, false, true, false}, 32);
      unsigned HookRuns = 0;
      GC.addStackClearHook([&HookRuns] { ++HookRuns; });
      std::optional<GcThreadScope> Scope;
      if (Registered)
        Scope.emplace(GC);
      EXPECT_NE(Typed ? GC.allocateTyped(Layout) : GC.allocate(16), nullptr);
      EXPECT_EQ(HookRuns, 1u);
    }
  }
}

TEST(ThreadCache, FlushPreservesRetainedSet) {
  GcConfig Config = testConfig();
  Config.ThreadCacheSlots = 32;
  Collector GC(Config);
  std::vector<uint64_t> Window(128, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  std::thread Worker([&GC, &Window] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    for (int I = 0; I != 100; ++I) {
      auto *Obj = static_cast<uint64_t *>(GC.allocate(64));
      ASSERT_NE(Obj, nullptr);
      *Obj = 0xc0ffee00ULL + I;
      Window[I] = reinterpret_cast<uint64_t>(Obj);
    }
    CollectionStats Cycle = GC.collect("census");
    EXPECT_EQ(Cycle.ObjectsLive, 100u)
        << "cached slots must not census as live objects";
    EXPECT_GT(Cycle.CacheSlotsFlushed, 0u)
        << "the collect should have flushed a warm cache";
    for (int I = 0; I != 100; ++I) {
      auto *Obj = reinterpret_cast<uint64_t *>(Window[I]);
      EXPECT_EQ(*Obj, 0xc0ffee00ULL + I);
    }
  });
  Worker.join();
  std::fill(Window.begin(), Window.end(), 0);
  GC.collect("drain");
  EXPECT_EQ(GC.allocatedBytes(), 0u);
}

// Unregistering returns every cached slot to the heap with its
// reservation accounting reversed: only client-held objects remain in
// the lifetime stats.
TEST(ThreadCache, UnregisterFlushesAndReversesReservations) {
  GcConfig Config = testConfig();
  Config.ThreadCacheSlots = 16;
  Collector GC(Config);
  std::atomic<uint64_t> SlotBytes{0};
  std::thread Worker([&GC, &SlotBytes] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    void *First = GC.allocate(64);
    ASSERT_NE(First, nullptr);
    SlotBytes.store(GC.objectSizeOf(First));
    for (int I = 0; I != 4; ++I)
      ASSERT_NE(GC.allocate(64), nullptr);
  });
  Worker.join();
  // 5 real allocations; the other 11+ reserved slots went back.
  EXPECT_EQ(GC.heapStats().ObjectsAllocated, 5u);
  EXPECT_EQ(GC.allocatedBytes(), 5 * SlotBytes.load());
  EXPECT_TRUE(GC.verifyHeapReport().clean());
  GC.collect("drain");
  EXPECT_EQ(GC.allocatedBytes(), 0u);
}

// The heap verifier's debt cross-check: with one quiesced mutator
// holding a warm cache, reservation debt reconciles against hand-outs
// plus cached slots.
TEST(ThreadCache, DebtReconcilesInVerifier) {
  GcConfig Config = testConfig();
  Config.ThreadCacheSlots = 16;
  Collector GC(Config);
  std::thread Worker([&GC] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    for (int I = 0; I != 10; ++I)
      ASSERT_NE(GC.allocate(48), nullptr);
    HeapVerifyReport Report = GC.verifyHeapReport();
    EXPECT_TRUE(Report.clean());
  });
  Worker.join();
  EXPECT_TRUE(GC.verifyHeapReport().clean());
}

// Guarded-heap mode disables the caches (every allocation must pass
// through the guard layer's header/redzone bookkeeping) but registered
// threads still allocate, free, and survive handshakes.
TEST(ThreadCache, GuardedModeDisablesCachesButThreadsWork) {
  GcConfig Config = testConfig();
  Config.DebugGuards = true;
  Config.ThreadCacheSlots = 32; // Requested, but guards win.
  Collector GC(Config);
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 2; ++T)
    Workers.emplace_back([&GC, &Stop, &Ready] {
      GcThreadScope Scope(GC);
      ASSERT_TRUE(Scope.registered());
      EXPECT_EQ(ThreadRegistry::current()->Cache, nullptr);
      Ready.fetch_add(1);
      uint64_t *Keep[8] = {nullptr};
      uint64_t I = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        auto *Obj = static_cast<uint64_t *>(GC.allocate(40 + (I % 5) * 24));
        ASSERT_NE(Obj, nullptr);
        *Obj = I;
        if (uint64_t *Old = Keep[I % 8]; Old && I % 3 == 0)
          GC.deallocate(Old), Old = nullptr;
        Keep[I % 8] = Obj;
        GC.safepoint();
        ++I;
      }
    });
  while (Ready.load() != 2)
    std::this_thread::yield();
  for (int Round = 0; Round != 5; ++Round) {
    CollectionStats Cycle = GC.collect("guarded-mt");
    EXPECT_EQ(Cycle.MutatorsStopped, 2u);
    EXPECT_EQ(Cycle.CacheSlotsFlushed, 0u);
  }
  Stop.store(true);
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(GC.guardStats().HeaderSmashes, 0u);
  EXPECT_EQ(GC.guardStats().RedzoneSmashes, 0u);
  EXPECT_EQ(GC.guardStats().DoubleFrees, 0u);
  EXPECT_EQ(GC.guardStats().InvalidFrees, 0u);
  GC.collect("drain-1");
  GC.collect("drain-2"); // Second pass reaps the flushed quarantine.
  EXPECT_EQ(GC.allocatedBytes(), 0u);
  GC.verifyHeap();
}
