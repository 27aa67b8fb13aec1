//===- perfbench/src/Recorder.h - Pauses, spans and layer totals -*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark measures while a workload runs.  The Recorder is
/// a GcObserver: every collection's pause is logged in every run, and
/// in a traced iteration it also keeps spans in memory and sums the
/// per-layer work the collector reports in CollectionStats.  Library
/// calls made by the workloads go through Recorder::call, which in a
/// traced iteration times the call and subtracts the collections nested
/// inside it, giving the call's self time.
///
/// Spans: an iteration span, a span per library call, a collection span
/// per cycle, and a span per pipeline phase.  The collection span is
/// re-parented under the library call that triggered it once that call
/// returns, so the Chrome trace nests phase -> collection -> cgc_malloc
/// -> iteration.  Calls that triggered no collection are kept one in
/// SampleEvery, which bounds the trace's size; their times are summed
/// on every call regardless.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RECORDER_H
#define PERFBENCH_RECORDER_H

#include "core/Collector.h"
#include "core/GcObserver.h"
#include "core/GcStats.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The library calls a workload makes, by the layer they enter.
enum class CallKind { Alloc, Free, Collect, BuildLists };

/// Per-iteration sums for one traced iteration.
struct LayerTotals {
  uint64_t AllocCalls = 0;
  uint64_t AllocSelfNs = 0;
  uint64_t FreeCalls = 0;
  uint64_t FreeSelfNs = 0;
  uint64_t PhaseNs[cgc::NumGcPhases] = {};
  uint64_t PauseNs = 0;
  uint64_t RootBytesScanned = 0;
  uint64_t HeapWordsScanned = 0;
  uint64_t ObjectsSweptFree = 0;
  uint64_t NearMisses = 0;
  uint64_t HandshakeNs = 0;
  uint64_t Collections = 0;
  uint64_t BlacklistedPages = 0;
  /// Iteration wall time not covered by a library call or a collection:
  /// the replay harness or the mutator's own work.
  uint64_t OutsideLibraryNs = 0;
};

/// One timed iteration of a workload.
struct Iteration {
  uint64_t WallNs = 0;
  uint64_t Ops = 0;
  uint64_t PauseNs = 0;
  bool Traced = false;
  LayerTotals Layers;
};

struct Span {
  const char *Name;
  const char *Category;
  uint64_t BeginNs;
  uint64_t EndNs;
  int32_t Parent;
  uint32_t Iteration;
};

class Recorder : public cgc::GcObserver {
public:
  /// Kept spans of calls that triggered no collection: one in this many.
  static constexpr uint64_t SampleEvery = 1024;
  /// Hard cap on kept spans (about 40 B each).
  static constexpr size_t MaxSpans = size_t(1) << 20;

  /// The collector whose committed heap is sampled at every collection.
  void watch(const cgc::Collector *GC) { Watched = GC; }

  /// Starts or ends one timed iteration.  Only collections inside an
  /// iteration are logged as pauses.
  void beginIteration(bool Traced);
  Iteration endIteration(uint64_t Ops);

  /// Runs \p Fn, a single library call of kind \p Kind.  In a traced
  /// iteration the call is timed and its self time added to the layer
  /// totals; otherwise it runs bare.
  template <typename FnT> auto call(CallKind Kind, FnT &&Fn) {
    if (!Tracing)
      return Fn();
    CallStart Start = enterCall();
    auto Result = Fn();
    exitCall(Kind, Start);
    return Result;
  }

  /// Adds \p Calls allocations made inside one bulk call (Program T's
  /// buildLists), whose individual calls the benchmark cannot time.
  void addBulkAllocCalls(uint64_t Calls) {
    if (Tracing)
      Current.AllocCalls += Calls;
  }

  /// Collection pauses logged inside iterations, in order.
  const std::vector<uint64_t> &pauses() const { return Pauses; }
  uint64_t peakCommittedBytes() const { return PeakCommitted; }
  /// Median self time of single allocation calls across traced
  /// iterations (0 when no call was timed one by one).
  uint64_t allocSelfNsMedian() const;

  /// When nonzero, every collection must mark exactly this many objects;
  /// mismatches are counted.
  uint64_t ExpectedMarked = 0;
  uint64_t markMismatches() const { return MarkMismatches; }

  /// Writes the kept spans as Chrome trace-event JSON.  \returns false
  /// on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;
  size_t spanCount() const { return Spans.size(); }

  void onCollectionBegin(uint64_t, const char *) override;
  void onCollectionEnd(uint64_t, const cgc::CollectionStats &Stats) override;
  void onPhaseBegin(cgc::GcPhase Phase) override;
  void onPhaseEnd(cgc::GcPhase Phase, uint64_t Nanos,
                  const cgc::CollectionStats &) override;

private:
  struct CallStart {
    uint64_t BeginNs;
    uint64_t CollectionNs;
    size_t FirstSpan;
  };

  CallStart enterCall();
  void exitCall(CallKind Kind, const CallStart &Start);
  int32_t openSpan(const char *Name, const char *Category, uint64_t Now);
  void closeSpan(int32_t Index, uint64_t Now);
  void sampleCommitted();

  const cgc::Collector *Watched = nullptr;
  bool InIteration = false;
  bool Tracing = false;
  uint64_t IterationBegin = 0;
  uint32_t IterationIndex = 0;
  LayerTotals Current;
  uint64_t IterationPauseNs = 0;
  /// Collection time so far, summed over the whole run; a call's nested
  /// collection time is the difference across the call.
  uint64_t CollectionNsTotal = 0;
  uint64_t CollectionNsInCalls = 0;
  uint64_t CallNsTotal = 0;
  uint64_t CollectionBegin = 0;
  uint64_t PeakCommitted = 0;
  uint64_t MarkMismatches = 0;
  uint64_t CallsSeen = 0;
  std::vector<uint64_t> Pauses;
  /// Self-time histogram of single allocation calls, 1 ns buckets; the
  /// last bucket collects everything slower.
  std::vector<uint64_t> AllocHistogram;

  std::vector<Span> Spans;
  std::vector<int32_t> OpenSpans;
  int32_t IterationSpan = -1;
  int32_t CollectionSpan = -1;
  int32_t PhaseSpan = -1;
};

} // namespace perfbench

#endif // PERFBENCH_RECORDER_H
