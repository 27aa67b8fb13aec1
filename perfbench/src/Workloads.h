//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four closed-loop workloads: one mutator thread makes each call
/// only after the previous one returned.  Inputs are generated from the
/// seed during set-up; an iteration is the unit the benchmark times
/// (one trace replay, one collection cycle, one Program T run).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Recorder.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Correctness tallies for one run.
struct Outcome {
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  /// Program T lists built and falsely retained, over all iterations.
  uint64_t ListsBuilt = 0;
  uint64_t ListsRetained = 0;

  void fail(std::string Message, uint64_t Count = 1) {
    Failed += Count;
    if (Errors.size() < 16)
      Errors.push_back(std::move(Message));
  }
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Generates the inputs and creates the collector.  Discards any
  /// state an earlier set-up left.  \p Input numbers the input of a
  /// workload that sets up every iteration; others ignore it.
  virtual void setUp(Recorder &Rec, uint64_t Input) = 0;
  /// Runs one timed iteration, checks its outputs into \p Out, and
  /// \returns the operations it completed.
  virtual uint64_t iterate(Recorder &Rec, Outcome &Out) = 0;
  /// Untimed: verifies the heap after a timed section.
  virtual void verify(Outcome &Out) = 0;
  /// True when every iteration needs its own set-up (a fresh heap).
  virtual bool setUpEachIteration() const { return false; }
  /// True when the iteration time outside library calls is the replay
  /// harness's (redirect layer) rather than the mutator's (structures).
  virtual bool replaysTrace() const { return false; }
  /// What one operation is, for the printed report.
  virtual const char *opName() const = 0;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string> &workloadNames();

/// \returns the workload called \p Name, or null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
