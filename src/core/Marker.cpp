//===- core/Marker.cpp - Conservative marking with blacklisting ----------===//

#include "core/Marker.h"
#include "support/FaultInjection.h"
#include <chrono>
#include <thread>

using namespace cgc;

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScanOrigin originOf(RootSource Source) {
  switch (Source) {
  case RootSource::StaticData:
    return ScanOrigin::StaticData;
  case RootSource::Stack:
    return ScanOrigin::Stack;
  case RootSource::Registers:
    return ScanOrigin::Registers;
  case RootSource::Client:
    return ScanOrigin::Client;
  }
  return ScanOrigin::Client;
}

/// Private-stack size at which a parallel worker exposes work, and the
/// batch size it exposes/steals.  Exposing the oldest half keeps the
/// hot (deepest) end private while thieves receive the widest subtrees.
constexpr size_t ExposeThreshold = 64;
constexpr size_t ExposeBatch = ExposeThreshold / 2;

} // namespace

/// One mark tracer.  Constructed per phase (root scan, mark drain,
/// finalization resurrection); holds no state that outlives a phase.
class Marker::Worker {
public:
  /// Sequential worker: pushes go to \p ExternalStack, blacklist notes
  /// go straight to the blacklist (with the paper's footnote-3 timing).
  Worker(Marker &M, CollectionStats &Stats,
         std::vector<WorkItem> *ExternalStack)
      : M(M), Stats(Stats), ExternalStack(ExternalStack) {}

  /// Parallel worker \p Id of \p NumWorkers; pushes go to the private
  /// stack with periodic exposure, near misses are buffered.
  Worker(Marker &M, CollectionStats &Stats, unsigned Id,
         unsigned NumWorkers)
      : M(M), Stats(Stats), Id(Id), NumWorkers(NumWorkers),
        Parallel(true) {}

  /// Figure 2's mark(p): validity test, blacklist note, mark, push.
  /// \p PreciseWord marks candidates read from a precisely-traced word:
  /// a failed resolution is then a stale or foreign pointer, not a near
  /// miss, so it never feeds the blacklist or the near-miss counters
  /// (BlacklistPromote treats such words as incapable of pinning
  /// pages).
  void considerCandidate(WindowOffset Candidate, ScanOrigin Origin,
                         bool PreciseWord = false);

  /// Sequential: drains the external stack to empty, scanning each
  /// popped object.
  void drainSequential();

  /// Parallel: preloads one item onto the private stack before the
  /// workers start (seeding only; no InFlight bookkeeping).
  void seed(const WorkItem &Item) { Local.push_back(Item); }

  /// Parallel: drains the private stack, reclaiming/stealing shared
  /// work, until the marker-wide closure completes.
  void runParallel();

  /// Parallel: replays buffered near misses into the blacklist.  Call
  /// after every worker has joined; single-threaded.
  void flushBlacklist();

private:
  void scanObject(const WorkItem &Item);
  void push(const WorkItem &Item);
  void exposeForStealing();
  /// Refills the private stack from this worker's slot or a victim's.
  bool takeSharedWork();

  Marker &M;
  CollectionStats &Stats;
  /// Sequential mode: the shared LIFO (seed list or drain stack).
  std::vector<WorkItem> *ExternalStack = nullptr;
  /// Parallel mode: the private mark stack.
  std::vector<WorkItem> Local;
  /// Parallel mode: near-miss pages awaiting the sequential flush.
  std::vector<PageIndex> BlacklistBuffer;
  unsigned Id = 0;
  unsigned NumWorkers = 1;
  bool Parallel = false;
};

//===----------------------------------------------------------------------===//
// Marker
//===----------------------------------------------------------------------===//

Marker::Marker(VirtualArena &Arena, PageAllocator &Pages, PageMap &Map,
               BlockTable &Blocks, ObjectHeap &Heap,
               Blacklist &BlacklistImpl, GcWorkerPool &Pool,
               const GcConfig &Config)
    : Arena(Arena), Pages(Pages), Map(Map), Blocks(Blocks), Heap(Heap),
      BlacklistImpl(BlacklistImpl), Pool(Pool), Config(Config) {}

Marker::~Marker() = default;

ObjectRef Marker::resolveCandidate(WindowOffset Candidate) const {
  BlockId Id = Map.blockAt(pageOfOffset(Candidate));
  if (Id == InvalidBlockId)
    return {};
  const BlockDescriptor &Block = Blocks.get(Id);
  int32_t Slot = Block.slotContaining(Candidate);
  if (Slot < 0)
    return {};
  uint32_t SlotIdx = static_cast<uint32_t>(Slot);
  WindowOffset Base = Block.slotOffset(SlotIdx);
  // Per-object override first (observation 7's remedy): pointers past
  // the first page never retain an ignore-off-page object.
  if (Block.IgnoreOffPage && Candidate - Base >= PageSize)
    return {};
  switch (Config.Interior) {
  case InteriorPolicy::All:
    break;
  case InteriorPolicy::BaseOnly: {
    if (Candidate != Base &&
        !std::binary_search(Displacements.begin(), Displacements.end(),
                            static_cast<uint32_t>(Candidate - Base)))
      return {};
    break;
  }
  case InteriorPolicy::FirstPage:
    if (Candidate - Base >= PageSize)
      return {};
    break;
  }
  return {Id, SlotIdx};
}

void Marker::registerDisplacement(uint32_t Displacement) {
  auto It = std::lower_bound(Displacements.begin(), Displacements.end(),
                             Displacement);
  if (It == Displacements.end() || *It != Displacement)
    Displacements.insert(It, Displacement);
}

void Marker::runRootScan(const RootSet &Roots, CollectionStats &Stats) {
  Heap.clearMarks();
  Seeds.clear();
  forEachUncollectableObject(
      [&](BlockId, BlockDescriptor &Block, uint32_t Slot) {
        if (Block.MarkBits.testAndSet(Slot))
          return;
        ++Stats.ObjectsMarked;
        Stats.BytesMarked += Block.ObjectSize;
        // Pointer-free uncollectable payloads are live by definition
        // but hold no pointers: nothing to trace through them.
        if (!kindIsPointerFree(Block.Kind))
          Seeds.push_back(
              {Block.slotOffset(Slot), Block.ObjectSize, Block.LayoutId});
      });

  Worker Scanner(*this, Stats, &Seeds);
  Roots.forEach([&](const RootRange &Range) {
    ScanOrigin Origin = originOf(Range.Source);
    Roots.forEachScannableSubrange(
        Range.Begin, Range.End,
        [&](const unsigned char *Begin, const unsigned char *End) {
          Stats.RootBytesScanned += static_cast<uint64_t>(End - Begin);
          Stats.RootCandidatesExamined += forEachRootCandidate(
              Range, Begin, End, [&](WindowOffset Candidate, const void *) {
                uint64_t Before = Stats.ObjectsMarked;
                Scanner.considerCandidate(Candidate, Origin);
                if (Stats.ObjectsMarked != Before)
                  ++Stats.RootHits;
              });
        });
  });
}

void Marker::runMarkPhase(CollectionStats &Stats) {
  unsigned Workers = std::clamp(Config.MarkThreads, 1u, MaxWorkers);
  // Negotiate the worker count only when the parallel path would
  // actually run: a failed spawn degrades the phase, never aborts it,
  // and the sequential configurations still never touch the pool.
  if (Workers > 1 && Seeds.size() >= 2)
    Workers = Pool.ensureWorkers(Workers);
  Stats.MarkWorkers = Workers;
  if (Workers == 1 || Seeds.size() < 2) {
    // The paper's marker: one LIFO stack, drained in place.
    Worker W(*this, Stats, &Seeds);
    W.drainSequential();
    recoverFromOverflow(Stats);
    return;
  }

  while (Slots.size() < Workers)
    Slots.push_back(std::make_unique<StealSlot>());
  for (unsigned I = 0; I != Workers; ++I)
    Slots[I]->Items.clear();

  // Per-worker scan counters; merged below so the shared record is
  // never written concurrently.
  std::vector<CollectionStats> WorkerStats(Workers);
  std::vector<std::unique_ptr<Worker>> WorkersVec;
  WorkersVec.reserve(Workers);
  for (unsigned I = 0; I != Workers; ++I)
    WorkersVec.push_back(
        std::make_unique<Worker>(*this, WorkerStats[I], I, Workers));

  // Round-robin seeding: root-scan candidates arrive in scan order, so
  // neighboring seeds (often the same structure) spread across workers.
  for (size_t I = 0; I != Seeds.size(); ++I)
    WorkersVec[I % Workers]->seed(Seeds[I]);
  InFlight.store(Seeds.size(), std::memory_order_relaxed);
  Seeds.clear();

  // Hand the drain to the persistent pool: worker 0 is this thread,
  // the rest are parked pool threads (spawned once, ever).
  Pool.runOn(Workers,
             [&WorkersVec](unsigned Id) { WorkersVec[Id]->runParallel(); });

  // Sequential epilogue: replay buffered blacklist candidates in worker
  // order, then fold the per-worker counters into the cycle record.
  for (unsigned I = 0; I != Workers; ++I)
    WorkersVec[I]->flushBlacklist();
  for (unsigned I = 0; I != Workers; ++I)
    Stats.addScanCounters(WorkerStats[I]);
  recoverFromOverflow(Stats);
}

void Marker::runMark(const RootSet &Roots, CollectionStats &Stats) {
  runRootScan(Roots, Stats);
  runMarkPhase(Stats);
}

void Marker::markFromCandidate(WindowOffset Candidate,
                               CollectionStats &Stats) {
  // Resurrection-sized graphs; always sequential, independent of the
  // Mark phase's worker count.
  std::vector<WorkItem> Stack;
  Worker W(*this, Stats, &Stack);
  W.considerCandidate(Candidate, ScanOrigin::Client);
  W.drainSequential();
  recoverFromOverflow(Stats);
}

void Marker::recoverFromOverflow(CollectionStats &Stats) {
  if (!Overflowed.load(std::memory_order_acquire))
    return;
  // A dropped push always targets an object whose mark bit was just
  // set, so the lost work is recoverable from the mark bitmap: rescan
  // every marked pointer-bearing object and repeat until no pass marks
  // anything new.  This is the classic overflow recovery; it converges
  // even while the fault stays armed, because a pass that marks
  // nothing new also pushes (and therefore drops) nothing.
  uint64_t Before;
  do {
    Overflowed.store(false, std::memory_order_relaxed);
    Before = Stats.ObjectsMarked;
    std::vector<WorkItem> Stack;
    Blocks.forEach([&](BlockId, BlockDescriptor &Block) {
      if (kindIsPointerFree(Block.Kind))
        return;
      for (uint32_t Slot = 0; Slot != Block.ObjectCount; ++Slot)
        if (Block.MarkBits.test(Slot))
          Stack.push_back({Block.slotOffset(Slot), Block.ObjectSize,
                           Block.LayoutId});
    });
    Worker W(*this, Stats, &Stack);
    W.drainSequential();
  } while (Stats.ObjectsMarked != Before);
}

//===----------------------------------------------------------------------===//
// Marker::Worker
//===----------------------------------------------------------------------===//

void Marker::Worker::push(const WorkItem &Item) {
  if (CGC_INJECT_FAULT(MarkStackOverflow)) {
    // Simulated mark-stack overflow: drop the item (its object is
    // already marked) and flag the marker so it rebuilds the closure
    // from the mark bitmap afterwards.  Sits before the InFlight bump
    // so parallel termination detection stays balanced.
    ++Stats.MarkStackOverflows;
    M.Overflowed.store(true, std::memory_order_release);
    return;
  }
  if (!Parallel) {
    ExternalStack->push_back(Item);
    return;
  }
  M.InFlight.fetch_add(1, std::memory_order_acq_rel);
  Local.push_back(Item);
  if (Local.size() >= ExposeThreshold)
    exposeForStealing();
}

void Marker::Worker::considerCandidate(WindowOffset Candidate,
                                       ScanOrigin Origin, bool PreciseWord) {
  // Figure 2, line by line.  "if p is not a valid object address":
  ObjectRef Ref = M.resolveCandidate(Candidate);
  if (!Ref.valid()) {
    // "if p is in the vicinity of the heap, add p to blacklist".  The
    // proximity test shares its page probe with the validity check.
    // A word the descriptor declared to be a pointer can't be a
    // misidentified integer: its failed resolution is stale or foreign
    // data, so it neither blacklists the page nor counts as a near
    // miss.
    if (PreciseWord)
      return;
    PageIndex Page = pageOfOffset(Candidate);
    if (M.Pages.inPotentialHeap(Page)) {
      if (Parallel) {
        // The blacklist is single-threaded; buffer for the post-join
        // flush (timed there, preserving the footnote-3 measurement).
        BlacklistBuffer.push_back(Page);
      } else {
        uint64_t Start = nowNanos();
        M.BlacklistImpl.noteCandidate(Page);
        Stats.BlacklistNanos += nowNanos() - Start;
      }
      ++Stats.NearMisses;
      ++Stats.NearMissesByOrigin[static_cast<unsigned>(Origin)];
    }
    return;
  }
  // "if p is marked return; set mark bit for p" — atomically, so N
  // workers racing on one object mark (and push) it exactly once.
  BlockDescriptor &Block = M.Blocks.get(Ref.Block);
  if (Block.testAndSetMark(Ref.Slot))
    return;
  ++Stats.ObjectsMarked;
  Stats.BytesMarked += Block.ObjectSize;
  ++Stats.MarksByOrigin[static_cast<unsigned>(Origin)];
  // "for each field q ... mark(q)" — deferred to the mark stack, and
  // skipped entirely for objects declared pointer-free.
  if (!kindIsPointerFree(Block.Kind))
    push({Block.slotOffset(Ref.Slot), Block.ObjectSize, Block.LayoutId});
}

void Marker::Worker::scanObject(const WorkItem &Item) {
  // A typed object's scanned words are its descriptor's pointer words,
  // so they count as precisely traced.
  bool Precise = Item.LayoutId != 0;
  unsigned Class = static_cast<unsigned>(
      Precise ? DescriptorClass::Precise : DescriptorClass::Conservative);
  uint64_t Words = M.forEachObjectCandidate(
      Item.Begin, Item.Bytes, Item.LayoutId, [&](WindowOffset Candidate) {
        ++Stats.ScanCandidatesByClass[Class];
        considerCandidate(Candidate, ScanOrigin::Heap, Precise);
      });
  Stats.HeapWordsScanned += Words;
  Stats.ScanWordsByClass[Class] += Words;
}

void Marker::Worker::drainSequential() {
  while (!ExternalStack->empty()) {
    WorkItem Item = ExternalStack->back();
    ExternalStack->pop_back();
    scanObject(Item);
  }
}

void Marker::Worker::exposeForStealing() {
  StealSlot &Slot = *M.Slots[Id];
  std::lock_guard<std::mutex> Guard(Slot.Lock);
  // Donate the oldest (widest) half; keep the hot end private.
  Slot.Items.insert(Slot.Items.end(), Local.begin(),
                    Local.begin() + ExposeBatch);
  Local.erase(Local.begin(), Local.begin() + ExposeBatch);
}

bool Marker::Worker::takeSharedWork() {
  // Reclaim our own slot first (no contention in the common case)...
  {
    StealSlot &Own = *M.Slots[Id];
    std::lock_guard<std::mutex> Guard(Own.Lock);
    if (!Own.Items.empty()) {
      Local.swap(Own.Items);
      return true;
    }
  }
  // ...then steal a batch from a victim, scanning the ring from our
  // right neighbor so thieves spread over victims.
  for (unsigned Step = 1; Step != NumWorkers; ++Step) {
    unsigned Victim = (Id + Step) % NumWorkers;
    StealSlot &Slot = *M.Slots[Victim];
    std::unique_lock<std::mutex> Guard(Slot.Lock, std::try_to_lock);
    if (!Guard.owns_lock() || Slot.Items.empty())
      continue;
    size_t Take = std::min(Slot.Items.size(), ExposeBatch);
    Local.insert(Local.end(), Slot.Items.begin(),
                 Slot.Items.begin() + Take);
    Slot.Items.erase(Slot.Items.begin(), Slot.Items.begin() + Take);
    return true;
  }
  return false;
}

void Marker::Worker::runParallel() {
  CGC_ASSERT(Parallel, "runParallel on a sequential worker");
  for (;;) {
    while (!Local.empty()) {
      WorkItem Item = Local.back();
      Local.pop_back();
      scanObject(Item);
      M.InFlight.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (takeSharedWork())
      continue;
    if (M.InFlight.load(std::memory_order_acquire) == 0)
      return;
    std::this_thread::yield();
  }
}

void Marker::Worker::flushBlacklist() {
  if (BlacklistBuffer.empty())
    return;
  uint64_t Start = nowNanos();
  for (PageIndex Page : BlacklistBuffer)
    M.BlacklistImpl.noteCandidate(Page);
  Stats.BlacklistNanos += nowNanos() - Start;
  BlacklistBuffer.clear();
}
