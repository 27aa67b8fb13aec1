//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
//
// Why these four (perfbench/README.md has the measured phase split):
//
//   replay-ast      canned compiler trace through the C API, frees
//                   ignored: allocation, root scan of the replay slot
//                   table, and sweep do the work; mark is nearly idle.
//   replay-web-free canned server trace, every free honoured through
//                   cgc_free: explicit free beside allocation, and
//                   64-256 KiB bodies on the page-run allocator.
//   live-graph      an 18 MB pointer-dense graph kept live and collected
//                   over and over: mark is the pause, and allocation
//                   stays out of the loop but for a small garbage batch.
//   programT-sparc  the paper's Program T under SPARC(static) root
//                   pollution with blacklisting on: the only workload
//                   that drives the blacklist, and it carries the
//                   paper's own retention metric.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "baseline/ExplicitHeap.h"
#include "capi/cgc.h"
#include "capi/cgc_internal.h"
#include "core/Collector.h"
#include "redirect/TraceLog.h"
#include "redirect/TraceReplay.h"
#include "redirect/TraceScenarios.h"
#include "sim/PlatformProfile.h"
#include "structures/ProgramT.h"

#include <cinttypes>
#include <cstdio>
#include <iterator>

using namespace cgc;

namespace perfbench {

namespace {

uint64_t splitMix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::string hex(uint64_t Value) {
  char Buffer[24];
  std::snprintf(Buffer, sizeof(Buffer), "%016" PRIx64, Value);
  return Buffer;
}

/// The C++ counterpart of cgc_verify_heap, for collectors the
/// benchmark drives through the C++ API.
void verifyCollector(Collector &GC, Outcome &Out) {
  HeapVerifyReport Report = GC.verifyHeapReport();
  if (!Report.clean())
    Out.fail("heap verifier: " + Report.Issues.front(),
             Report.Issues.size());
}

//===----------------------------------------------------------------------===//
// Trace replays through the C API
//===----------------------------------------------------------------------===//

/// The untimed reference: ExplicitHeap replays the same trace during
/// set-up, and every timed replay must reproduce its digest.
class ExplicitReference : public ReplayAllocator {
public:
  ExplicitReference() : Heap(uint64_t(512) << 20) {}
  void *allocate(size_t Bytes) override { return Heap.malloc(Bytes); }
  void deallocate(void *Ptr) override { Heap.free(Ptr); }

private:
  baseline::ExplicitHeap Heap;
};

/// The collector behind ReplayAllocator, one library call per event.
/// The replay's slot table is registered as a root range for the
/// duration of one replay: it is what keeps replayed objects alive.
class CollectorAllocator : public ReplayAllocator {
public:
  CollectorAllocator(cgc_collector *Gc, Recorder &Rec) : Gc(Gc), Rec(Rec) {}
  ~CollectorAllocator() override { endReplay(); }

  void *allocate(size_t Bytes) override {
    return Rec.call(CallKind::Alloc, [&] { return cgc_malloc(Gc, Bytes); });
  }
  void deallocate(void *Ptr) override {
    Rec.call(CallKind::Free, [&] {
      cgc_free(Gc, Ptr);
      return 0;
    });
  }
  void noteSlotTable(void **Table, uint64_t Slots) override {
    endReplay();
    if (Slots)
      RootHandle = cgc_add_roots(Gc, Table, Table + Slots);
  }
  /// Drops the slot-table root; the table dies with the replay.
  void endReplay() {
    if (RootHandle)
      cgc_remove_roots(Gc, RootHandle);
    RootHandle = 0;
  }

private:
  cgc_collector *Gc;
  Recorder &Rec;
  unsigned RootHandle = 0;
};

class ReplayWorkload : public Workload {
public:
  ReplayWorkload(TraceScenario Scenario, unsigned Scale, bool HonorFrees,
                 uint64_t Seed)
      : Scenario(Scenario), Scale(Scale), Seed(Seed) {
    Options.HonorFrees = HonorFrees;
  }
  ~ReplayWorkload() override { tearDown(); }

  void setUp(Recorder &Rec, uint64_t) override {
    tearDown();
    Reader.adopt(generateScenarioTrace(Scenario, Seed, Scale));
    ExplicitReference Reference;
    ReplayResult Expected = replayTrace(Reader, Reference);
    ExpectedDigest = Expected.Digest;

    cgc_config Config;
    cgc_config_init(&Config);
    Config.max_heap_bytes = uint64_t(768) << 20;
    Config.mark_threads = 1;
    Config.sweep_threads = 1;
    Gc = cgc_create(&Config);
    if (!Gc)
      return;
    cgc_register_thread(Gc);
    Collector &GC = capi::collectorOf(Gc);
    ObserverId = GC.addObserver(&Rec);
    Rec.watch(&GC);
    Allocator = std::make_unique<CollectorAllocator>(Gc, Rec);
    // The first collection brings up whatever the collector starts
    // lazily, so the timed replays all see a running collector.
    cgc_gcollect(Gc);
  }

  uint64_t iterate(Recorder &, Outcome &Out) override {
    if (!Gc) {
      Out.fail("cgc_create failed");
      return 1;
    }
    ReplayResult R = replayTrace(Reader, *Allocator, Options);
    Allocator->endReplay();
    if (R.Malformed)
      Out.fail("trace is malformed");
    if (R.FailedAllocs)
      Out.fail(std::to_string(R.FailedAllocs) + " allocations failed",
               R.FailedAllocs);
    else if (R.Digest != ExpectedDigest)
      Out.fail("replay digest " + hex(R.Digest) +
               " differs from the ExplicitHeap digest " +
               hex(ExpectedDigest));
    return R.Events;
  }

  void verify(Outcome &Out) override {
    if (!Gc)
      return;
    char Report[512] = {};
    if (size_t Findings = cgc_verify_heap(Gc, Report, sizeof(Report)))
      Out.fail("cgc_verify_heap: " + std::to_string(Findings) +
                   " finding(s): " + Report,
               Findings);
  }

  bool replaysTrace() const override { return true; }
  const char *opName() const override { return "trace event"; }

private:
  void tearDown() {
    Reader = TraceReader();
    if (!Gc)
      return;
    Allocator.reset();
    capi::collectorOf(Gc).removeObserver(ObserverId);
    cgc_unregister_thread(Gc);
    cgc_destroy(Gc);
    Gc = nullptr;
  }

  TraceScenario Scenario;
  unsigned Scale;
  uint64_t Seed;
  ReplayOptions Options;
  TraceReader Reader;
  uint64_t ExpectedDigest = 0;
  cgc_collector *Gc = nullptr;
  GcObserverId ObserverId = 0;
  std::unique_ptr<CollectorAllocator> Allocator;
};

//===----------------------------------------------------------------------===//
// live-graph: a large live graph, collected repeatedly
//===----------------------------------------------------------------------===//

/// 14 child links plus payload: 128 bytes of mostly pointers.
constexpr unsigned ChildrenPerNode = 14;
struct GraphNode {
  GraphNode *Children[ChildrenPerNode];
  uint64_t Payload[2];
};

class LiveGraphWorkload : public Workload {
public:
  static constexpr size_t Nodes = 150000;
  /// Garbage allocated between collections, so sweep frees something.
  static constexpr unsigned GarbagePerCycle = 4096;

  explicit LiveGraphWorkload(uint64_t Seed) : Seed(Seed) {}
  ~LiveGraphWorkload() override { tearDown(); }

  void setUp(Recorder &Rec, uint64_t) override {
    tearDown();
    GcConfig Config;
    Config.WindowBytes = uint64_t(512) << 20;
    Config.Placement = HeapPlacement::Custom;
    Config.CustomHeapBaseOffset = 16 << 20;
    Config.MaxHeapBytes = uint64_t(128) << 20;
    Config.GcAtStartup = false;
    // Only the benchmark's own collect() calls collect, so every cycle
    // marks the same graph.
    Config.MinHeapBytesBeforeGc = ~uint64_t(0);
    Config.MarkThreads = 1;
    Config.SweepThreads = 1;
    GC = std::make_unique<Collector>(Config);

    uint64_t State = Seed;
    std::vector<GraphNode *> All(Nodes);
    for (GraphNode *&Node : All)
      Node = static_cast<GraphNode *>(GC->allocate(sizeof(GraphNode)));
    BuildFailed = false;
    for (GraphNode *Node : All)
      BuildFailed |= Node == nullptr;
    if (!BuildFailed) {
      // Child 0 chains every node to the next, so node 0 reaches all;
      // the other links are uniform, so marking misses in cache.
      for (size_t I = 0; I != Nodes; ++I) {
        All[I]->Children[0] = All[(I + 1) % Nodes];
        for (unsigned C = 1; C != ChildrenPerNode; ++C)
          All[I]->Children[C] = All[splitMix(State) % Nodes];
      }
      Root = reinterpret_cast<uint64_t>(All[0]);
    }
    GC->addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                     RootSource::Client, "live-graph");
    for (uint64_t &Size : GarbageSizes)
      Size = 16 * (2 + splitMix(State) % 7);

    GC->addObserver(&Rec);
    Rec.watch(GC.get());
    Rec.ExpectedMarked = Nodes;
    GC->collect("perfbench-setup");
  }

  uint64_t iterate(Recorder &Rec, Outcome &Out) override {
    if (BuildFailed) {
      Out.fail("graph build ran out of memory");
      return 1;
    }
    uint64_t Failed = 0;
    for (unsigned I = 0; I != GarbagePerCycle; ++I) {
      uint64_t Bytes = GarbageSizes[I % std::size(GarbageSizes)];
      void *Ptr = Rec.call(CallKind::Alloc,
                           [&] { return GC->allocate(Bytes); });
      Failed += Ptr == nullptr;
    }
    if (Failed)
      Out.fail(std::to_string(Failed) + " garbage allocations failed", Failed);
    Rec.call(CallKind::Collect, [&] { return GC->collect("perfbench"); });
    return 1;
  }

  void verify(Outcome &Out) override { verifyCollector(*GC, Out); }

  const char *opName() const override { return "collection"; }

private:
  void tearDown() { GC.reset(); }

  uint64_t Seed;
  std::unique_ptr<Collector> GC;
  uint64_t Root = 0;
  bool BuildFailed = false;
  uint64_t GarbageSizes[64] = {};
};

//===----------------------------------------------------------------------===//
// programT-sparc: Program T under SPARC(static) pollution, blacklisting on
//===----------------------------------------------------------------------===//

class ProgramTWorkload : public Workload {
public:
  /// Table 1, SPARC(static), blacklisting on: 0-0.5% unoptimized and
  /// 0.5-1% optimized.  Every run must stay inside the union.
  static constexpr double MaxRetainedFraction = 0.01;

  explicit ProgramTWorkload(uint64_t Seed)
      : Seed(Seed), Spec(sim::specFor(sim::Platform::SparcStatic,
                                       /*Optimized=*/false)) {}
  ~ProgramTWorkload() override { tearDown(); }

  bool setUpEachIteration() const override { return true; }

  void setUp(Recorder &Rec, uint64_t Input) override {
    tearDown();
    GC = std::make_unique<Collector>(
        sim::configFor(Spec, BlacklistMode::FlatBitmap));
    uint64_t State = Seed ^ (Input * 0xd1b54a32d192ed03ull);
    Env = std::make_unique<sim::SimEnvironment>(*GC, Spec, splitMix(State));
    Env->populateOtherLiveData();
    ProgramTConfig Config;
    Config.NumLists = Spec.ProgramTLists;
    Config.CellsPerList = Spec.CellsPerList;
    Config.AllocFrameSlots = Spec.AllocFrameSlots;
    Config.FrameWrittenFraction = Spec.FrameWrittenFraction;
    Config.FurtherExecSlots = Spec.FurtherExecSlots;
    T = std::make_unique<ProgramT>(*GC, &Env->stack(), Config);
    GC->addObserver(&Rec);
    Rec.watch(GC.get());
  }

  uint64_t iterate(Recorder &Rec, Outcome &Out) override {
    // ProgramT::run() is buildLists, dropReferences, measure; the steps
    // are called one by one so that list building gets its own span.
    uint64_t AllocatedBefore = GC->heapStats().ObjectsAllocated;
    Rec.call(CallKind::BuildLists, [&] {
      T->buildLists();
      return 0;
    });
    Rec.addBulkAllocCalls(GC->heapStats().ObjectsAllocated - AllocatedBefore);
    T->dropReferences();
    ProgramTResult R = T->measure();

    Out.ListsBuilt += R.ListsBuilt;
    Out.ListsRetained += R.ListsRetained;
    if (R.OutOfMemory || R.ListsBuilt != Spec.ProgramTLists)
      Out.fail("Program T built " + std::to_string(R.ListsBuilt) + " of " +
                   std::to_string(Spec.ProgramTLists) + " lists",
               Spec.ProgramTLists - R.ListsBuilt);
    else if (R.fractionRetained() > MaxRetainedFraction)
      Out.fail("Program T retained " + std::to_string(R.ListsRetained) +
               " lists, outside Table 1's SPARC(static) blacklisting band");
    return R.ListsBuilt;
  }

  void verify(Outcome &Out) override { verifyCollector(*GC, Out); }

  const char *opName() const override { return "Program T list"; }

private:
  void tearDown() {
    T.reset();
    Env.reset();
    GC.reset();
  }

  uint64_t Seed;
  sim::PlatformSpec Spec;
  std::unique_ptr<Collector> GC;
  std::unique_ptr<sim::SimEnvironment> Env;
  std::unique_ptr<ProgramT> T;
};

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "replay-ast", "replay-web-free", "live-graph", "programT-sparc"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed) {
  if (Name == "replay-ast")
    return std::make_unique<ReplayWorkload>(TraceScenario::CompilerAst, 5,
                                            /*HonorFrees=*/false, Seed);
  if (Name == "replay-web-free")
    return std::make_unique<ReplayWorkload>(TraceScenario::WebServer, 10,
                                            /*HonorFrees=*/true, Seed);
  if (Name == "live-graph")
    return std::make_unique<LiveGraphWorkload>(Seed);
  if (Name == "programT-sparc")
    return std::make_unique<ProgramTWorkload>(Seed);
  return nullptr;
}

} // namespace perfbench
