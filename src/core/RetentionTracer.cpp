//===- core/RetentionTracer.cpp - Why is this object live? ----------------===//

#include "core/RetentionTracer.h"
#include "support/Assert.h"
#include <deque>
#include <unordered_map>

using namespace cgc;

namespace {

uint64_t keyOf(ObjectRef Ref) {
  return (uint64_t(Ref.Block) << 32) | Ref.Slot;
}

struct Provenance {
  /// Key of the parent object, or 0 for root-reached.
  uint64_t ParentKey = 0;
  /// For root-reached objects: which root range and word.
  uint32_t RootIndex = 0;
  const void *RootWord = nullptr;
  /// The candidate value used to reach this object.
  WindowOffset ReachedThrough = 0;
};

} // namespace

std::string RetentionTrace::describe() const {
  if (!Reached)
    return "(not reachable from the current roots)";
  char Buffer[128];
  std::string Text = RootLabel;
  for (const RetentionStep &Step : Chain) {
    std::snprintf(Buffer, sizeof(Buffer), " -> obj@0x%llx (%u bytes)",
                  (unsigned long long)Step.ObjectBase, Step.ObjectSize);
    Text += Buffer;
  }
  return Text;
}

namespace {

/// Traces from \p Roots and the uncollectable objects to the object
/// keyed \p TargetKey, breadth first, and fills \p Result with the
/// chain.  \p Roots' ranges are valid only during the call.
void traceFrom(Collector &GC, const RootSet &Roots, uint64_t TargetKey,
               RetentionTrace &Result) {
  Marker &M = GC.marker();
  ObjectHeap &Heap = GC.objectHeap();
  std::unordered_map<uint64_t, Provenance> Visited;
  std::deque<uint64_t> Queue;
  std::vector<const RootRange *> RootRanges;

  auto visit = [&](WindowOffset Candidate, uint64_t ParentKey,
                   uint32_t RootIndex, const void *RootWord) -> bool {
    ObjectRef Ref = M.resolveCandidate(Candidate);
    if (!Ref.valid())
      return false;
    uint64_t Key = keyOf(Ref);
    if (Visited.count(Key))
      return false;
    Provenance P;
    P.ParentKey = ParentKey;
    P.RootIndex = RootIndex;
    P.RootWord = RootWord;
    P.ReachedThrough = Candidate;
    Visited.emplace(Key, P);
    Queue.push_back(Key);
    return Key == TargetKey;
  };

  bool Found = false;

  // Uncollectable objects are roots (including the pointer-free
  // variety: live by definition, even though nothing traces through
  // them).
  M.forEachUncollectableObject(
      [&](BlockId Id, BlockDescriptor &, uint32_t Slot) {
        ObjectRef Ref{Id, Slot};
        uint64_t Key = keyOf(Ref);
        if (Found || Visited.count(Key))
          return;
        Provenance P;
        P.ParentKey = 0;
        P.RootIndex = ~0u; // Sentinel: uncollectable root.
        P.ReachedThrough = Heap.baseOffset(Ref);
        Visited.emplace(Key, P);
        Queue.push_back(Key);
        Found = Key == TargetKey;
      });

  // Root ranges, honoring exclusions, encodings, alignment.
  Roots.forEach([&](const RootRange &Range) {
    if (Found)
      return;
    RootRanges.push_back(&Range);
    uint32_t RootIndex = static_cast<uint32_t>(RootRanges.size() - 1);
    Roots.forEachScannableSubrange(
        Range.Begin, Range.End,
        [&](const unsigned char *Begin, const unsigned char *End) {
          M.forEachRootCandidate(
              Range, Begin, End,
              [&](WindowOffset Candidate, const unsigned char *Word) {
                if (!Found)
                  Found = visit(Candidate, 0, RootIndex, Word);
              });
        });
  });

  // Breadth-first over the heap so the reported chain is shortest.
  while (!Found && !Queue.empty()) {
    uint64_t Key = Queue.front();
    Queue.pop_front();
    ObjectRef Ref{static_cast<BlockId>(Key >> 32),
                  static_cast<uint32_t>(Key)};
    const BlockDescriptor &Block = Heap.blockTable().get(Ref.Block);
    if (kindIsPointerFree(Block.Kind))
      continue;
    M.forEachObjectCandidate(Heap.baseOffset(Ref), Block.ObjectSize,
                             Block.LayoutId, [&](WindowOffset Candidate) {
                               if (!Found)
                                 Found = visit(Candidate, Key, 0, nullptr);
                             });
  }

  if (!Visited.count(TargetKey))
    return;

  // Reconstruct the chain target -> ... -> root, then reverse.
  Result.Reached = true;
  std::vector<RetentionStep> Reversed;
  uint64_t Cursor = TargetKey;
  while (true) {
    const Provenance &P = Visited.at(Cursor);
    ObjectRef Ref{static_cast<BlockId>(Cursor >> 32),
                  static_cast<uint32_t>(Cursor)};
    RetentionStep Step;
    Step.ObjectBase = Heap.baseOffset(Ref);
    Step.ObjectSize = static_cast<uint32_t>(Heap.objectSize(Ref));
    Step.ReachedThrough = P.ReachedThrough;
    Reversed.push_back(Step);
    if (P.ParentKey == 0) {
      if (P.RootIndex == ~0u) {
        Result.RootLabel = "(uncollectable object)";
        Result.Source = RootSource::Client;
      } else {
        const RootRange *Range = RootRanges[P.RootIndex];
        Result.RootLabel = Range->Label;
        Result.Source = Range->Source;
        Result.RootWord = P.RootWord;
      }
      break;
    }
    Cursor = P.ParentKey;
  }
  Result.Chain.assign(Reversed.rbegin(), Reversed.rend());
}

} // namespace

RetentionTrace RetentionTracer::explain(const void *Target) {
  RetentionTrace Result;
  if (!GC.isHeapPointer(Target))
    return Result;
  ObjectRef TargetRef = GC.marker().resolveCandidate(
      GC.arena().offsetOf(reinterpret_cast<Address>(Target)));
  if (!TargetRef.valid())
    return Result;
  uint64_t TargetKey = keyOf(TargetRef);
  // The collector's own ranges (machine stack, registers, mutator
  // threads) exist only with the world stopped, so the whole trace
  // runs inside that window.
  GC.withAllRoots([&](const RootSet &Roots) {
    traceFrom(GC, Roots, TargetKey, Result);
  });
  return Result;
}
