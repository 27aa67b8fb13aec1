//===- core/Marker.h - Conservative marking with blacklisting --*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conservative mark phase, structured exactly as the paper's
/// Figure 2:
///
/// \code
///   mark(p) {
///     if p is not a valid object address
///       if p is in the vicinity of the heap
///         add p to blacklist            // the bold-face additions
///       return
///     if p is marked return
///     set mark bit for p
///     for each field q in the object referenced by p  mark(q)
///   }
/// \endcode
///
/// Recursion is replaced by explicit mark stacks.  The collector's phase
/// pipeline drives two entry points:
///
///   * runRootScan — the RootScan phase: clear marks, mark
///     uncollectable objects, scan every root span.  Objects reached
///     here are marked and their scan work is *seeded*, not drained.
///   * runMarkPhase — the Mark phase: drain the seeds to the full
///     reachability closure on GcConfig::MarkThreads workers.
///
/// What a word means is said once, by the decoder below
/// (forEachRootCandidate, forEachObjectCandidate,
/// forEachUncollectableObject): a root span is read by its range's
/// encoding at RootScanAlignment strides, an object by its
/// descriptor's pointer words or at HeapScanAlignment strides, and
/// every allocated uncollectable object is a root.  The marker and the
/// RetentionTracer read words only through it.
///
/// Validity checking honors the configured interior-pointer policy; the
/// "vicinity of the heap" test is membership in the potential heap
/// arena, and as the paper notes it "overlaps substantially with the
/// immediately preceding pointer validity check" — both start from the
/// same page-map probe.
///
/// One mark worker (the default) drains one LIFO vector, the paper's
/// mark stack.  With more, each worker owns a private LIFO stack plus
/// a mutex-guarded steal slot: past a threshold it exposes its oldest
/// half, and when it runs dry it reclaims its own slot or steals a
/// batch from a victim's (oldest-first stealing hands thieves the
/// widest subtrees).  Near-miss blacklist candidates are buffered per
/// worker and flushed sequentially after the join (the Blacklist is
/// single-threaded).  The workers run on the collector's persistent
/// GcWorkerPool; the marker owns no threads.  Either way the marked
/// set is the reachability closure and every CollectionStats counter
/// is a sum over scanned words, so results are identical for any
/// worker count.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_MARKER_H
#define CGC_CORE_MARKER_H

#include "core/Blacklist.h"
#include "core/GcConfig.h"
#include "core/GcStats.h"
#include "core/GcWorkerPool.h"
#include "heap/ObjectHeap.h"
#include "roots/RootSet.h"
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

// The conservative scan reads whole root ranges, the stack's ASan
// redzones and words other threads are writing included; that is its
// job, so the two loads it reads words through stay uninstrumented, as
// bdwgc's GC_ATTR_NO_SANITIZE_ADDR and GC_ATTR_NO_SANITIZE_THREAD do.
// Both are empty outside sanitizer builds.
#if defined(__SANITIZE_ADDRESS__)
#define CGC_NO_SANITIZE_ADDRESS __attribute__((no_sanitize_address))
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CGC_NO_SANITIZE_ADDRESS __attribute__((no_sanitize_address))
#endif
#endif
#ifndef CGC_NO_SANITIZE_ADDRESS
#define CGC_NO_SANITIZE_ADDRESS
#endif
#if defined(__SANITIZE_THREAD__)
#define CGC_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CGC_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#endif
#endif
#ifndef CGC_NO_SANITIZE_THREAD
#define CGC_NO_SANITIZE_THREAD
#endif

namespace cgc {

class Marker {
public:
  /// Hard cap on mark workers.
  static constexpr unsigned MaxWorkers = GcWorkerPool::MaxWorkers;

  Marker(VirtualArena &Arena, PageAllocator &Pages, PageMap &Map,
         BlockTable &Blocks, ObjectHeap &Heap, Blacklist &BlacklistImpl,
         GcWorkerPool &Pool, const GcConfig &Config);
  ~Marker();

  /// RootScan phase: clears marks, marks uncollectable objects, scans
  /// \p Roots, and seeds the mark queue with everything reached.
  /// Phase statistics accumulate into \p Stats.
  void runRootScan(const RootSet &Roots, CollectionStats &Stats);

  /// Mark phase: drains the seeds left by runRootScan to the full
  /// transitive closure on GcConfig::MarkThreads workers (1 = the
  /// paper's sequential marker).  The count is negotiated down through
  /// GcWorkerPool::ensureWorkers when thread spawning fails, so marking
  /// always completes with the same marked set; the count actually used
  /// goes to Stats.MarkWorkers.
  void runMarkPhase(CollectionStats &Stats);

  /// Runs a full mark (runRootScan + runMarkPhase).  Kept for callers
  /// outside the phase pipeline (tests, measureLiveness).
  void runMark(const RootSet &Roots, CollectionStats &Stats);

  /// Marks a single candidate and drains the resulting work
  /// sequentially (used by finalization to resurrect objects, and by
  /// tests).
  void markFromCandidate(WindowOffset Candidate, CollectionStats &Stats);

  /// Resolves \p Candidate under the configured policies without
  /// marking.  Exposed for the misidentification-rate experiments.
  /// Read-only; safe from any mark worker.
  ObjectRef resolveCandidate(WindowOffset Candidate) const;

  /// Registers an additional valid interior displacement for the
  /// BaseOnly policy (tagged-pointer language implementations store
  /// base + tag).  Displacement 0 is always valid.  Not legal during a
  /// mark.
  void registerDisplacement(uint32_t Displacement);

  /// Decodes the span [Begin, End) of \p Range: one word at every
  /// GcConfig::RootScanAlignment stride, read per the range's
  /// encoding.  Calls \p Fn(Candidate, Word) for each word that lands
  /// in the window, with Word the host address it was read from.
  /// \returns the number of words examined.
  ///
  /// One switch picks the scanRootWords instantiation for the range's
  /// encoding and the configured stride, so the loop that reads every
  /// root word has both as constants.
  template <typename FnT>
  uint64_t forEachRootCandidate(const RootRange &Range,
                                const unsigned char *Begin,
                                const unsigned char *End, FnT &&Fn) const {
    constexpr auto Key = [](RootEncoding Encoding, unsigned Stride) {
      return uint64_t(Stride) << 8 | static_cast<unsigned>(Encoding);
    };
    using enum RootEncoding;
    switch (Key(Range.Encoding, Config.RootScanAlignment)) {
    case Key(Native64, 1):
      return scanRootWords<Native64, 1>(Begin, End, Fn);
    case Key(Native64, 2):
      return scanRootWords<Native64, 2>(Begin, End, Fn);
    case Key(Native64, 4):
      return scanRootWords<Native64, 4>(Begin, End, Fn);
    case Key(Native64, 8):
      return scanRootWords<Native64, 8>(Begin, End, Fn);
    case Key(Window32LE, 1):
      return scanRootWords<Window32LE, 1>(Begin, End, Fn);
    case Key(Window32LE, 2):
      return scanRootWords<Window32LE, 2>(Begin, End, Fn);
    case Key(Window32LE, 4):
      return scanRootWords<Window32LE, 4>(Begin, End, Fn);
    case Key(Window32LE, 8):
      return scanRootWords<Window32LE, 8>(Begin, End, Fn);
    case Key(Window32BE, 1):
      return scanRootWords<Window32BE, 1>(Begin, End, Fn);
    case Key(Window32BE, 2):
      return scanRootWords<Window32BE, 2>(Begin, End, Fn);
    case Key(Window32BE, 4):
      return scanRootWords<Window32BE, 4>(Begin, End, Fn);
    case Key(Window32BE, 8):
      return scanRootWords<Window32BE, 8>(Begin, End, Fn);
    }
    CGC_UNREACHABLE("root scan alignment must be 1, 2, 4 or 8");
  }

  /// Enumerates the candidate words of the object at [Begin,
  /// Begin + Bytes): exactly its descriptor's pointer words when
  /// \p LayoutId is nonzero (the slot's tail past the type is never
  /// traced), otherwise every 64-bit word at GcConfig::HeapScanAlignment
  /// strides.  Calls \p Fn(Candidate) for each word that lands in the
  /// arena.  \returns the number of words examined.
  template <typename FnT>
  uint64_t forEachObjectCandidate(WindowOffset Begin, uint32_t Bytes,
                                  uint32_t LayoutId, FnT &&Fn) const {
    const unsigned char *Base =
        static_cast<const unsigned char *>(Arena.pointerTo(Begin));
    uint64_t Examined = 0;
    if (LayoutId != 0) {
      const TypeDescriptor &D = Heap.layout(LayoutId);
      uint32_t Words = std::min<uint32_t>(
          D.NumWords, Bytes / static_cast<uint32_t>(sizeof(uint64_t)));
      for (uint32_t Word = D.findPointerWord(0); Word < Words;
           Word = D.findPointerWord(Word + 1)) {
        ++Examined;
        Address Addr =
            static_cast<Address>(load64(Base + Word * sizeof(uint64_t)));
        if (Arena.contains(Addr))
          Fn(Arena.offsetOf(Addr));
      }
      return Examined;
    }
    if (Bytes < sizeof(uint64_t))
      return 0;
    unsigned Stride = Config.HeapScanAlignment;
    CGC_CHECK(Stride >= 1 && Stride <= 8, "bad heap scan alignment");
    for (const unsigned char *P = Base, *End = Base + Bytes;
         P + sizeof(uint64_t) <= End; P += Stride) {
      ++Examined;
      Address Addr = static_cast<Address>(load64(P));
      if (Arena.contains(Addr))
        Fn(Arena.offsetOf(Addr));
    }
    return Examined;
  }

  /// Calls \p Fn(Id, Block, Slot) for every allocated uncollectable
  /// object, pointer-free ones included: they are roots, live by
  /// definition, and their contents may hold the only pointer to
  /// collectable data.
  template <typename FnT> void forEachUncollectableObject(FnT &&Fn) {
    Blocks.forEach([&](BlockId Id, BlockDescriptor &Block) {
      if (!kindIsUncollectable(Block.Kind))
        return;
      for (uint32_t Slot = 0; Slot != Block.ObjectCount; ++Slot)
        if (Block.AllocBits.test(Slot))
          Fn(Id, Block, Slot);
    });
  }

private:
  class Worker;

  /// One unit of tracing work: an object whose contents must be scanned.
  struct WorkItem {
    WindowOffset Begin;
    uint32_t Bytes;
    /// Layout of the pushed object; 0 = conservative scan.
    uint32_t LayoutId;
  };

  /// A worker's stealable overflow: oldest exposed items first.
  struct StealSlot {
    std::mutex Lock;
    std::vector<WorkItem> Items;
  };

  static CGC_NO_SANITIZE_ADDRESS CGC_NO_SANITIZE_THREAD uint64_t
  load64(const unsigned char *P) {
    uint64_t Value;
    std::memcpy(&Value, P, sizeof(Value));
    return Value;
  }

  static CGC_NO_SANITIZE_ADDRESS CGC_NO_SANITIZE_THREAD uint32_t
  load32(const unsigned char *P, bool BigEndian) {
    uint32_t Value;
    std::memcpy(&Value, P, sizeof(Value));
    return BigEndian ? __builtin_bswap32(Value) : Value;
  }

  /// The root-word loop of forEachRootCandidate for one encoding and
  /// stride.  The arena bounds live in locals.  The word count is
  /// computed once: no pointer past End is ever formed, and the
  /// examined count is that number, not a counter carried through
  /// memory.  A word outside the window costs one unsigned compare.
  /// Kept out of line so the loop's values stay in callee-saved
  /// registers across the hit path's call instead of being spilled by
  /// the caller's larger frame.  Unrolled eight ways, so the loop takes
  /// one branch per eight words instead of one per word: a core whose
  /// sibling hardware thread is busy shares its branch and issue
  /// bandwidth, and the one-branch-per-word loop then ran 1.8 times
  /// slower, where the unrolled one runs 1.35 times slower.
  template <RootEncoding Encoding, unsigned Stride, typename FnT>
  __attribute__((noinline)) uint64_t
  scanRootWords(const unsigned char *Begin, const unsigned char *End,
                FnT &Fn) const {
    constexpr size_t WordBytes =
        Encoding == RootEncoding::Native64 ? sizeof(uint64_t)
                                           : sizeof(uint32_t);
    const size_t Bytes = static_cast<size_t>(End - Begin);
    if (Bytes < WordBytes)
      return 0;
    const size_t Words = (Bytes - WordBytes) / Stride + 1;
    const Address Lo = Arena.base();
    const uint64_t Span = Arena.size();
#pragma GCC unroll 8
    for (size_t I = 0; I != Words; ++I) {
      const unsigned char *P = Begin + I * Stride;
      if constexpr (Encoding == RootEncoding::Native64) {
        WindowOffset Offset = static_cast<Address>(load64(P)) - Lo;
        if (Offset < Span) [[unlikely]]
          Fn(Offset, P);
      } else {
        // Window32: every 32-bit value is an offset into the window,
        // exactly as every 32-bit integer was an address on the
        // paper's machines.
        WindowOffset Offset = load32(P, Encoding == RootEncoding::Window32BE);
        if (Offset < Span) [[unlikely]]
          Fn(Offset, P);
      }
    }
    return Words;
  }

  /// Rebuilds the reachability closure after mark-stack pushes were
  /// dropped (MarkStackOverflow fault injection): rescans every marked
  /// object in pointer-bearing blocks, sequentially, until no new
  /// objects get marked.  Dropped items always reference objects whose
  /// mark bit is already set, so the fixpoint converges even while the
  /// fault stays armed.  No-op when nothing was dropped.
  void recoverFromOverflow(CollectionStats &Stats);

  VirtualArena &Arena;
  PageAllocator &Pages;
  PageMap &Map;
  BlockTable &Blocks;
  ObjectHeap &Heap;
  Blacklist &BlacklistImpl;
  /// The collector-wide persistent worker pool; borrowed, never owned.
  GcWorkerPool &Pool;
  const GcConfig &Config;
  /// Sorted extra displacements valid under BaseOnly (0 is implicit).
  std::vector<uint32_t> Displacements;

  /// Mark work seeded by the RootScan phase, consumed by the Mark
  /// phase.  Doubles as the sequential drain stack.
  std::vector<WorkItem> Seeds;
  /// One steal slot per parallel worker; sized on demand.
  std::vector<std::unique_ptr<StealSlot>> Slots;
  /// Items pushed but not yet fully scanned, across all workers.
  /// Reaches zero exactly when the closure is complete; workers use it
  /// for termination detection.
  std::atomic<uint64_t> InFlight{0};
  /// Set by any worker that dropped a push (injected mark-stack
  /// overflow); read by recoverFromOverflow after the workers join.
  std::atomic<bool> Overflowed{false};
};

} // namespace cgc

#endif // CGC_CORE_MARKER_H
