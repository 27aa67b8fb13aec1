//===- perfbench/src/main.cpp - The repository benchmark -----------------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload (perfbench/src/Workloads.cpp) in this process with
// one mutator thread for --seconds, checks its outputs, and prints its
// metrics.  The last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates
// traced and untraced iterations and reports the per-layer metrics of
// the traced ones, plus the tracing overhead between the two; the spans
// go to --trace-file as Chrome trace-event JSON.
//
// Usage:
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-file PATH]
//
// Exits 1 when any output check fails and 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Recorder.h"
#include "Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;

namespace {

/// Set-ups per run for workloads that set up once; setup_s is their
/// median.
constexpr unsigned SetUpRepeats = 3;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceFile;
};

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    if (Arg == "--workload")
      Opts.Workload = Value;
    else if (Arg == "--seed")
      Opts.Seed = std::strtoull(Value, nullptr, 10);
    else if (Arg == "--seconds")
      Opts.Seconds = std::strtod(Value, nullptr);
    else if (Arg == "--trace")
      Opts.Trace = std::strcmp(Value, "0") != 0;
    else if (Arg == "--trace-file")
      Opts.TraceFile = Value;
    else
      return false;
  }
  return !Opts.Workload.empty() && Opts.Seconds > 0;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : (Values[Mid - 1] + Values[Mid]) / 2;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

//===----------------------------------------------------------------------===//
// Host probe: how many cores are really free
//===----------------------------------------------------------------------===//

/// Wall seconds for \p Threads threads to each run the same fixed spin.
double spinSeconds(unsigned Threads) {
  auto Spin = [] {
    volatile uint64_t Sink = 0;
    uint64_t X = 88172645463325252ull;
    for (unsigned I = 0; I != 20000000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
    }
    Sink = X;
    (void)Sink;
  };
  uint64_t Begin = nowNs();
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I != Threads; ++I)
    Workers.emplace_back(Spin);
  for (std::thread &Worker : Workers)
    Worker.join();
  return static_cast<double>(nowNs() - Begin) / 1e9;
}

/// Prints nproc next to the effective parallelism of 1, 2 and 4
/// spinning threads (N threads' work over the time they took, in units
/// of one thread's rate), so a run on a contended host is recognisable.
void printHostProbe() {
  double One = spinSeconds(1);
  std::printf("host: nproc=%u spin_1t_s=%.4f", std::thread::hardware_concurrency(),
              One);
  for (unsigned Threads : {2u, 4u})
    std::printf(" effective_parallelism_%ut=%.2f", Threads,
                Threads * One / spinSeconds(Threads));
  std::printf("\n");
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note;
};

struct RunData {
  std::vector<double> SetUpSeconds;
  std::vector<Iteration> Iterations;
};

RunData runWorkload(Workload &W, Recorder &Rec, Outcome &Out,
                    const Options &Opts) {
  RunData Data;
  auto timedSetUp = [&](uint64_t Input) {
    uint64_t Begin = nowNs();
    W.setUp(Rec, Input);
    Data.SetUpSeconds.push_back(static_cast<double>(nowNs() - Begin) / 1e9);
  };
  if (!W.setUpEachIteration())
    for (unsigned I = 0; I != SetUpRepeats; ++I)
      timedSetUp(0);

  // A traced run alternates traced and untraced iterations, and gives
  // both iterations of a pair the same input, so the tracing overhead
  // compares like with like.
  unsigned MinIterations = Opts.Trace ? 2 : 1;
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Opts.Seconds * 1e9);
  for (unsigned I = 0; I < MinIterations || nowNs() < Deadline; ++I) {
    if (W.setUpEachIteration())
      timedSetUp(Opts.Trace ? I / 2 : I);
    Rec.beginIteration(Opts.Trace && I % 2 == 0);
    uint64_t Ops = W.iterate(Rec, Out);
    Data.Iterations.push_back(Rec.endIteration(Ops));
    if (W.setUpEachIteration())
      W.verify(Out);
  }
  if (!W.setUpEachIteration())
    W.verify(Out);
  if (Rec.markMismatches())
    Out.fail(std::to_string(Rec.markMismatches()) +
                 " collection(s) marked other than the graph's node count",
             Rec.markMismatches());
  return Data;
}

/// Operations over the wall time of the iterations that did them.  A
/// sum, not a median over iterations: Program T's iterations differ in
/// work with their input.
double opsPerSecond(const RunData &Data, bool Traced) {
  uint64_t Ops = 0, WallNs = 0;
  for (const Iteration &It : Data.Iterations)
    if (It.Traced == Traced) {
      Ops += It.Ops;
      WallNs += It.WallNs;
    }
  return ratio(static_cast<double>(Ops), static_cast<double>(WallNs) / 1e9);
}

std::vector<Metric> endToEndMetrics(const RunData &Data, const Recorder &Rec) {
  std::vector<uint64_t> Pauses = Rec.pauses();
  std::sort(Pauses.begin(), Pauses.end());
  std::vector<double> PauseMs;
  for (uint64_t Pause : Pauses)
    PauseMs.push_back(static_cast<double>(Pause) / 1e6);

  // The tail is p90, which has at least 10 samples beyond it on every
  // workload: a 20 s run logs well over 100 pauses.  Higher percentiles
  // of the replays' 4 ms pauses measured host interrupts: their spread
  // across seeds was 3 to 4 times wider than p90's.
  size_t N = PauseMs.size();
  size_t TailIndex = N ? std::min(N - 1, N * 9 / 10) : 0;
  double Tail = N ? PauseMs[TailIndex] : 0;
  std::string TailNote = "p90 of " + std::to_string(N) + " pauses, " +
                         std::to_string(N ? N - 1 - TailIndex : 0) +
                         " beyond it";
  uint64_t PauseNs = 0, WallNs = 0;
  for (const Iteration &It : Data.Iterations) {
    PauseNs += It.PauseNs;
    WallNs += It.WallNs;
  }
  rusage Usage = {};
  getrusage(RUSAGE_SELF, &Usage);

  return {
      {"ops_per_s", opsPerSecond(Data, false), "1/s",
       "over " + std::to_string(Data.Iterations.size()) + " iterations"},
      {"pause_p50_ms", median(PauseMs), "ms",
       std::to_string(N) + " pauses"},
      {"pause_tail_ms", Tail, "ms", TailNote},
      {"gc_share_pct", 100.0 * ratio(PauseNs, WallNs), "%", ""},
      {"peak_heap_mib",
       static_cast<double>(Rec.peakCommittedBytes()) / (1 << 20), "MiB", ""},
      {"peak_rss_mib", static_cast<double>(Usage.ru_maxrss) / 1024, "MiB",
       ""},
      {"setup_s", median(Data.SetUpSeconds), "s",
       "median of " + std::to_string(Data.SetUpSeconds.size()) +
           " set-ups"},
  };
}

std::vector<Metric> perLayerMetrics(const RunData &Data, const Recorder &Rec,
                                    const Outcome &Out, uint64_t Attempted,
                                    bool IsReplay) {
  std::vector<const LayerTotals *> Traced;
  for (const Iteration &It : Data.Iterations)
    if (It.Traced)
      Traced.push_back(&It.Layers);
  // Each layer number is the median over traced iterations of that
  // iteration's value.
  auto layer = [&](auto Fn) {
    std::vector<double> Values;
    for (const LayerTotals *L : Traced)
      Values.push_back(static_cast<double>(Fn(*L)));
    return median(Values);
  };
  auto seconds = [&](auto Fn) {
    return layer([&](const LayerTotals &L) { return Fn(L) / 1e9; });
  };
  auto phase = [](cgc::GcPhase P) {
    return [P](const LayerTotals &L) {
      return static_cast<double>(L.PhaseNs[static_cast<unsigned>(P)]);
    };
  };
  using cgc::GcPhase;

  // Program T allocates inside buildLists, where single calls cannot be
  // timed; its per-call figure is the mean over the bulk call.
  double AllocNs = Rec.allocSelfNsMedian();
  if (AllocNs == 0)
    AllocNs = layer([](const LayerTotals &L) {
      return ratio(L.AllocSelfNs, L.AllocCalls);
    });
  double Outside = seconds(
      [](const LayerTotals &L) { return double(L.OutsideLibraryNs); });
  double Untraced = opsPerSecond(Data, false);
  double TracedRate = opsPerSecond(Data, true);

  return {
      {"heap.alloc_calls", layer([](auto &L) { return L.AllocCalls; }),
       "count/iter", ""},
      {"heap.alloc_self_s", seconds([](auto &L) { return double(L.AllocSelfNs); }),
       "s/iter", ""},
      {"heap.alloc_ns_p50", AllocNs, "ns", ""},
      {"heap.free_calls", layer([](auto &L) { return L.FreeCalls; }),
       "count/iter", ""},
      {"heap.free_self_s", seconds([](auto &L) { return double(L.FreeSelfNs); }),
       "s/iter", ""},
      {"roots.root_scan_s", seconds(phase(GcPhase::RootScan)), "s/iter", ""},
      {"roots.root_bytes_scanned",
       layer([](auto &L) { return L.RootBytesScanned; }), "B/iter", ""},
      {"roots.ns_per_kib", layer([&](const LayerTotals &L) {
         return ratio(phase(GcPhase::RootScan)(L),
                      L.RootBytesScanned / 1024.0);
       }),
       "ns/KiB", ""},
      {"core.mark_s", seconds(phase(GcPhase::Mark)), "s/iter", ""},
      {"core.heap_words_scanned",
       layer([](auto &L) { return L.HeapWordsScanned; }), "words/iter", ""},
      {"core.mark_ns_per_word", layer([&](const LayerTotals &L) {
         return ratio(phase(GcPhase::Mark)(L), L.HeapWordsScanned);
       }),
       "ns/word", ""},
      {"blacklist.promote_s", seconds(phase(GcPhase::BlacklistPromote)),
       "s/iter", ""},
      {"blacklist.near_misses", layer([](auto &L) { return L.NearMisses; }),
       "count/iter", ""},
      {"blacklist.pages", layer([](auto &L) { return L.BlacklistedPages; }),
       "count", ""},
      {"core.sweep_s", seconds(phase(GcPhase::Sweep)), "s/iter", ""},
      {"core.objects_swept_free",
       layer([](auto &L) { return L.ObjectsSweptFree; }), "count/iter", ""},
      {"core.sweep_ns_per_object", layer([&](const LayerTotals &L) {
         return ratio(phase(GcPhase::Sweep)(L), L.ObjectsSweptFree);
       }),
       "ns/object", ""},
      {"core.handshake_s", seconds([](auto &L) { return double(L.HandshakeNs); }),
       "s/iter", ""},
      {"core.finalize_s", seconds(phase(GcPhase::Finalize)), "s/iter", ""},
      {"core.collections", layer([](auto &L) { return L.Collections; }),
       "count/iter", ""},
      {"core.pause_s", seconds([](auto &L) { return double(L.PauseNs); }),
       "s/iter", ""},
      {"redirect.replay_self_s", IsReplay ? Outside : 0, "s/iter", ""},
      {"structures.mutator_self_s", IsReplay ? 0 : Outside, "s/iter", ""},
      {"trace.overhead_pct", 100.0 * (ratio(Untraced, TracedRate) - 1), "%",
       ""},
      {"retained_pct",
       100.0 * ratio(double(Out.ListsRetained), double(Out.ListsBuilt)), "%",
       ""},
      {"failed_ops_ratio", ratio(double(Out.Failed), double(Attempted)),
       "ratio", ""},
  };
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  Recorder Rec;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::fprintf(stderr, "usage: perfbench --workload NAME [--seed N] "
                         "[--seconds S] [--trace 0|1] [--trace-file PATH]\n");
    return 2;
  }
  std::unique_ptr<Workload> W = makeWorkload(Opts.Workload, Opts.Seed);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; one of:",
                 Opts.Workload.c_str());
    for (const std::string &Name : workloadNames())
      std::fprintf(stderr, " %s", Name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  printHostProbe();
  Outcome Out;
  RunData Data = runWorkload(*W, Rec, Out, Opts);

  uint64_t Attempted = 0;
  for (const Iteration &It : Data.Iterations)
    Attempted += It.Ops;
  Attempted = std::max<uint64_t>(Attempted, 1);
  std::vector<Metric> Metrics =
      Opts.Trace ? perLayerMetrics(Data, Rec, Out, Attempted, W->replaysTrace())
                 : endToEndMetrics(Data, Rec);

  std::printf("workload %s seed %" PRIu64 ": %zu iterations, %" PRIu64
              " ops (one op = one %s)\n",
              Opts.Workload.c_str(), Opts.Seed, Data.Iterations.size(),
              Attempted, W->opName());
  for (const Metric &M : Metrics)
    std::printf("  %-28s %14.6g %-10s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  if (Opts.Trace && !Opts.TraceFile.empty()) {
    if (Rec.writeChromeTrace(Opts.TraceFile))
      std::printf("trace: %zu spans written to %s\n", Rec.spanCount(),
                  Opts.TraceFile.c_str());
    else
      Out.fail("cannot write trace file " + Opts.TraceFile);
  }
  for (const std::string &Error : Out.Errors)
    std::printf("CHECK FAILED: %s\n", Error.c_str());

  bool Correct = Out.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Out.Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
