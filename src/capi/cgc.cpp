//===- capi/cgc.cpp - C API for the cgc collector -------------------------===//

#include "capi/cgc.h"
#include "capi/cgc_internal.h"
#include "core/Collector.h"
#include "core/GcIncident.h"
#include "core/GcSentinel.h"
#include "support/CrashReporter.h"
#include "support/FaultInjection.h"
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <vector>

using namespace cgc;

namespace {

/// Bridges a C event callback onto the C++ observer interface.  The
/// collector dispatches by index with tombstoned removal, so a removed
/// adapter is never invoked again — but an observer may remove *itself*
/// from inside its own callback, so adapters stay alive until
/// cgc_destroy rather than being freed on removal.
class CEventObserver final : public GcObserver {
public:
  CEventObserver(cgc_gc_event_fn Fn, void *ClientData)
      : Fn(Fn), ClientData(ClientData) {}

  void onCollectionBegin(uint64_t Index, const char *) override {
    Fn(CGC_EVENT_COLLECTION_BEGIN, -1, Index, ClientData);
  }
  void onCollectionEnd(uint64_t Index, const CollectionStats &) override {
    Fn(CGC_EVENT_COLLECTION_END, -1, Index, ClientData);
  }
  void onPhaseBegin(GcPhase Phase) override {
    Fn(CGC_EVENT_PHASE_BEGIN, static_cast<int>(Phase), 0, ClientData);
  }
  void onPhaseEnd(GcPhase Phase, uint64_t Nanos,
                  const CollectionStats &) override {
    Fn(CGC_EVENT_PHASE_END, static_cast<int>(Phase), Nanos, ClientData);
  }

  GcObserverId RegistrationId = 0;

private:
  cgc_gc_event_fn Fn;
  void *ClientData;
};

/// Bridges the sentinel's onIncident onto the flat C callback.  Lives
/// in the handle; registered only while a callback is installed.
class CIncidentObserver final : public GcObserver {
public:
  void onIncident(const GcIncident &Incident) override {
    if (Fn)
      Fn(static_cast<int>(Incident.Cause), Incident.CollectionIndex,
         Incident.EscalationLevel, Incident.WindowGrowthBytes, ClientData);
  }

  cgc_incident_fn Fn = nullptr;
  void *ClientData = nullptr;
};

} // namespace

/// The opaque handle is a thin wrapper so the C side never sees C++
/// types and the C++ side keeps full type safety.
struct cgc_collector {
  explicit cgc_collector(const GcConfig &Config) : GC(Config) {}
  Collector GC;
  std::vector<std::unique_ptr<CEventObserver>> Observers;
  /// C-side OOM handler and warn proc; bridged through static
  /// trampolines (GcOomHandler's uint64_t signature need not match the
  /// C typedefs exactly, so the pointers are never cast across).
  cgc_oom_fn COomFn = nullptr;
  void *COomData = nullptr;
  cgc_warn_fn CWarnFn = nullptr;
  void *CWarnData = nullptr;
  /// C-side incident callback adapter; registered while Fn is set.
  CIncidentObserver IncidentObserver;
  GcObserverId IncidentObserverId = 0;
};

namespace {

/// Reads each C field into its C++ counterpart by the field's rule; the
/// C++ side starts at its default.
struct ReadFromC {
  /// A value <= 0 (so 0, for the unsigned fields) keeps the default.
  template <class CT, class T> void positive(const CT &C, T &Cxx) {
    if (C > 0)
      Cxx = C;
  }
  /// Copied verbatim: 0 and negative values mean something here.
  template <class CT, class T> void exact(const CT &C, T &Cxx) { Cxx = C; }
  void flag(const int &C, bool &Cxx) { Cxx = C != 0; }
  /// A byte stride other than 1, 2, 4 or 8 keeps the default.
  void alignment(const unsigned &C, unsigned &Cxx) {
    if (C == 1 || C == 2 || C == 4 || C == 8)
      Cxx = C;
  }
  /// The CGC_* constants equal the enumerators (static_asserts below);
  /// an unknown or negative value keeps the default.
  template <class E> void choice(const int &C, E &Cxx, E Last) {
    if (C >= 0 && C <= static_cast<int>(Last))
      Cxx = static_cast<E>(C);
  }
  /// Custom placement takes the offset even when it is 0, and a nonzero
  /// offset forces Custom: clients older than the placement enum set
  /// only the offset.  Mapped after the placement.
  void baseOffset(const unsigned long long &C, HeapPlacement &Placement,
                  uint64_t &Offset) {
    if (C || Placement == HeapPlacement::Custom) {
      Placement = HeapPlacement::Custom;
      Offset = C;
    }
  }
  /// A reserved field is ignored.
  template <class CT> void reserved(const CT &, CT) {}
};

/// Writes each resolved C++ field back into its C counterpart.
struct WriteToC {
  template <class CT, class T> void positive(CT &C, const T &Cxx) { C = Cxx; }
  template <class CT, class T> void exact(CT &C, const T &Cxx) { C = Cxx; }
  void flag(int &C, const bool &Cxx) { C = Cxx ? 1 : 0; }
  void alignment(unsigned &C, const unsigned &Cxx) { C = Cxx; }
  template <class E> void choice(int &C, const E &Cxx, E) {
    C = static_cast<int>(Cxx);
  }
  void baseOffset(unsigned long long &C, const HeapPlacement &Placement,
                  const uint64_t &Offset) {
    C = Placement == HeapPlacement::Custom ? Offset : 0;
  }
  /// A reserved field reads back \p Fixed.
  template <class CT> void reserved(CT &C, CT Fixed) { C = Fixed; }
};

/// The one list of cgc_sentinel_policy fields, each beside its rule.
/// \p C and \p Cxx differ in constness by direction (see mapConfig).
template <class Mapper, class CPolicy, class Policy>
void mapSentinelPolicy(Mapper &&M, CPolicy &C, Policy &Cxx) {
  M.flag(C.enabled, Cxx.Enabled);
  M.positive(C.window_collections, Cxx.WindowCollections);
  M.positive(C.growth_floor_bytes, Cxx.GrowthFloorBytes);
  M.positive(C.growth_slope_fraction, Cxx.GrowthSlopeFraction);
  M.exact(C.min_growing_deltas, Cxx.MinGrowingDeltas);
  M.positive(C.escalation_cooldown, Cxx.EscalationCooldown);
  M.positive(C.tighten_cycles, Cxx.TightenCycles);
  M.positive(C.calm_collections, Cxx.CalmCollections);
}

/// The one list of cgc_config fields, each beside its rule; ReadFromC
/// walks it with a const C side, WriteToC with a const C++ side.
template <class Mapper, class CConfig, class Config>
void mapConfig(Mapper &&M, CConfig &C, Config &Cxx) {
  M.positive(C.window_bytes, Cxx.WindowBytes);
  M.positive(C.max_heap_bytes, Cxx.MaxHeapBytes);
  M.choice(C.heap_placement, Cxx.Placement, HeapPlacement::Custom);
  M.baseOffset(C.heap_base_offset, Cxx.Placement, Cxx.CustomHeapBaseOffset);
  M.positive(C.heap_growth_pages, Cxx.HeapGrowthPages);
  M.reserved(C.decommit_freed_pages, 1);
  M.choice(C.interior_policy, Cxx.Interior, InteriorPolicy::All);
  M.choice(C.blacklist_mode, Cxx.Blacklist, BlacklistMode::Hashed);
  M.flag(C.blacklist_aging, Cxx.BlacklistAging);
  M.positive(C.hashed_blacklist_bits_log2, Cxx.HashedBlacklistBitsLog2);
  M.flag(C.gc_at_startup, Cxx.GcAtStartup);
  M.flag(C.lazy_sweep, Cxx.LazySweep);
  M.alignment(C.root_scan_alignment, Cxx.RootScanAlignment);
  M.alignment(C.heap_scan_alignment, Cxx.HeapScanAlignment);
  M.positive(C.mark_threads, Cxx.MarkThreads);
  M.positive(C.sweep_threads, Cxx.SweepThreads);
  M.reserved(C.root_scan_threads, 1u);
  M.positive(C.mutator_threads, Cxx.MutatorThreads);
  M.positive(C.thread_cache_slots, Cxx.ThreadCacheSlots);
  M.reserved(C.all_interior_pointers_avoid_spans, 0);
  M.reserved(C.precise_free_slot_detection, 0);
  M.positive(C.collect_before_growth_ratio, Cxx.CollectBeforeGrowthRatio);
  M.positive(C.min_heap_bytes_before_gc, Cxx.MinHeapBytesBeforeGc);
  M.choice(C.stack_clearing, Cxx.StackClearing, StackClearMode::Cheap);
  M.positive(C.stack_clear_chunk_bytes, Cxx.StackClearChunkBytes);
  M.positive(C.stack_clear_every_n_allocs, Cxx.StackClearEveryNAllocs);
  M.flag(C.avoid_trailing_zero_addresses, Cxx.AvoidTrailingZeroAddresses);
  M.reserved(C.clear_freed_objects, 1);
  M.reserved(C.address_ordered_allocation, 1);
  M.flag(C.verify_every_collection, Cxx.VerifyEveryCollection);
  mapSentinelPolicy(M, C.sentinel, Cxx.Sentinel);
  M.flag(C.debug_guards, Cxx.DebugGuards);
  M.flag(C.guard_fatal, Cxx.GuardFatal);
  M.exact(C.quarantine_slots, Cxx.QuarantineSlots);
  M.exact(C.handshake_deadline_ms, Cxx.HandshakeDeadlineMs);
  M.flag(C.handshake_fatal, Cxx.HandshakeFatal);
  M.exact(C.suspend_signal, Cxx.SuspendSignal);
  M.flag(C.seal_metadata, Cxx.SealMetadata);
  M.flag(C.repair_fatal, Cxx.RepairFatal);
}

} // namespace

extern "C" {

void cgc_config_init(cgc_config *Config) {
  const GcConfig Defaults{};
  if (Config)
    mapConfig(WriteToC(), *Config, Defaults);
}

cgc_collector *cgc_create(const cgc_config *Config) {
  GcConfig Resolved;
  if (Config)
    mapConfig(ReadFromC(), *Config, Resolved);
  return new cgc_collector(Resolved);
}

void cgc_destroy(cgc_collector *GC) { delete GC; }

/// Every C allocation entry point funnels its result through here so
/// the errno contract is uniform: a NULL return always leaves
/// errno == ENOMEM, the way libc allocators do.  (Callers ported from
/// plain malloc check errno, and the redirect layer forwards these
/// returns straight to such callers.)
static void *finishAlloc(void *Ptr) {
  if (!Ptr)
    errno = ENOMEM;
  return Ptr;
}

void *cgc_malloc(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(GC->GC.allocate(Bytes, ObjectKind::Normal));
}

void *cgc_malloc_atomic(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(GC->GC.allocate(Bytes, ObjectKind::PointerFree));
}

void *cgc_malloc_uncollectable(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(GC->GC.allocate(Bytes, ObjectKind::Uncollectable));
}

void *cgc_malloc_atomic_uncollectable(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(
      GC->GC.allocate(Bytes, ObjectKind::PointerFreeUncollectable));
}

void *cgc_malloc_ignore_off_page(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(GC->GC.allocateIgnoreOffPage(Bytes, ObjectKind::Normal));
}

unsigned cgc_register_descriptor(cgc_collector *GC,
                                 const unsigned char *PointerWords,
                                 size_t NumWords, size_t Bytes) {
  std::vector<bool> Words(NumWords);
  for (size_t I = 0; I != NumWords; ++I)
    Words[I] = PointerWords[I] != 0;
  return GC->GC.registerObjectLayout(Words, Bytes);
}

void *cgc_malloc_explicitly_typed(cgc_collector *GC, unsigned Descriptor) {
  return finishAlloc(GC->GC.allocateTyped(Descriptor));
}

// This file's definitions sit inside an extern "C" region; the bridge
// is a C++ symbol, so re-open C++ linkage for it.
extern "C++" {
namespace cgc {
namespace capi {
Collector &collectorOf(cgc_collector *Handle) { return Handle->GC; }
} // namespace capi
} // namespace cgc
}

void cgc_free(cgc_collector *GC, void *Ptr) {
  if (Ptr)
    GC->GC.deallocate(Ptr);
}

unsigned long long cgc_gcollect(cgc_collector *GC) {
  return GC->GC.collect("cgc_gcollect").BytesSweptFree;
}

void cgc_set_mark_threads(cgc_collector *GC, unsigned Threads) {
  GC->GC.setMarkThreads(Threads);
}

unsigned cgc_mark_threads(cgc_collector *GC) {
  return GC->GC.markThreads();
}

void cgc_set_sweep_threads(cgc_collector *GC, unsigned Threads) {
  GC->GC.setSweepThreads(Threads);
}

unsigned cgc_sweep_threads(cgc_collector *GC) {
  return GC->GC.sweepThreads();
}

int cgc_register_thread(cgc_collector *GC) {
  return GC->GC.registerMutatorThread() ? 1 : 0;
}

void cgc_unregister_thread(cgc_collector *GC) {
  GC->GC.unregisterMutatorThread();
}

void cgc_safepoint(cgc_collector *GC) { GC->GC.safepoint(); }

void cgc_current_config(cgc_collector *GC, cgc_config *Out) {
  if (Out)
    mapConfig(WriteToC(), *Out, GC->GC.config());
}

/// Trampolines bridging the C++ handler signatures (uint64_t) onto the
/// C typedefs (size_t / unsigned long long) without casting function
/// pointers across signatures.
static void *oomTrampoline(uint64_t Bytes, void *UserData) {
  auto *Handle = static_cast<cgc_collector *>(UserData);
  return Handle->COomFn(static_cast<size_t>(Bytes), Handle->COomData);
}

static void warnTrampoline(const char *Message, uint64_t Value,
                           void *UserData) {
  auto *Handle = static_cast<cgc_collector *>(UserData);
  Handle->CWarnFn(Message, Value, Handle->CWarnData);
}

void cgc_set_oom_handler(cgc_collector *GC, cgc_oom_fn Fn,
                         void *ClientData) {
  GC->COomFn = Fn;
  GC->COomData = ClientData;
  GC->GC.setOomHandler(Fn ? oomTrampoline : nullptr, GC);
}

void cgc_set_warn_proc(cgc_collector *GC, cgc_warn_fn Fn,
                       void *ClientData) {
  GC->CWarnFn = Fn;
  GC->CWarnData = ClientData;
  GC->GC.setWarnProc(Fn ? warnTrampoline : nullptr, GC);
}

size_t cgc_verify_heap(cgc_collector *GC, char *Report,
                       size_t ReportBytes) {
  HeapVerifyReport Result = GC->GC.verifyHeapReport();
  if (Report && ReportBytes > 0) {
    std::string Text = Result.str();
    size_t Len = std::min(Text.size(), ReportBytes - 1);
    std::memcpy(Report, Text.data(), Len);
    Report[Len] = '\0';
  }
  return Result.Issues.size();
}

// The configuration enums map through one range-checked cast in
// ReadFromC::choice, so the C constants must equal the enumerators.
static_assert(CGC_INTERIOR_BASE_ONLY ==
                      static_cast<int>(InteriorPolicy::BaseOnly) &&
                  CGC_INTERIOR_FIRST_PAGE ==
                      static_cast<int>(InteriorPolicy::FirstPage) &&
                  CGC_INTERIOR_ALL == static_cast<int>(InteriorPolicy::All),
              "CGC_INTERIOR_* drifted from InteriorPolicy");
static_assert(CGC_BLACKLIST_OFF == static_cast<int>(BlacklistMode::Off) &&
                  CGC_BLACKLIST_FLAT ==
                      static_cast<int>(BlacklistMode::FlatBitmap) &&
                  CGC_BLACKLIST_HASHED ==
                      static_cast<int>(BlacklistMode::Hashed),
              "CGC_BLACKLIST_* drifted from BlacklistMode");
static_assert(CGC_PLACEMENT_HIGH_BITS_MIXED ==
                      static_cast<int>(HeapPlacement::HighBitsMixed) &&
                  CGC_PLACEMENT_LOW_SBRK ==
                      static_cast<int>(HeapPlacement::LowSbrk) &&
                  CGC_PLACEMENT_ASCII_RANGE ==
                      static_cast<int>(HeapPlacement::AsciiRange) &&
                  CGC_PLACEMENT_CUSTOM ==
                      static_cast<int>(HeapPlacement::Custom),
              "CGC_PLACEMENT_* drifted from HeapPlacement");
static_assert(CGC_STACK_CLEAR_OFF == static_cast<int>(StackClearMode::Off) &&
                  CGC_STACK_CLEAR_CHEAP ==
                      static_cast<int>(StackClearMode::Cheap),
              "CGC_STACK_CLEAR_* drifted from StackClearMode");
// The C mirrors must track the C++ enums value-for-value; a drift here
// would silently mistranslate every streamed finding.
static_assert(CGC_VERIFY_GENERIC ==
                  static_cast<int>(VerifyFindingKind::Generic) &&
              CGC_VERIFY_BLOCK_GEOMETRY ==
                  static_cast<int>(VerifyFindingKind::BlockGeometry) &&
              CGC_VERIFY_PAGE_MAP_STALE ==
                  static_cast<int>(VerifyFindingKind::PageMapStale) &&
              CGC_VERIFY_COUNTER_MISMATCH ==
                  static_cast<int>(VerifyFindingKind::CounterMismatch) &&
              CGC_VERIFY_FREE_LIST_BROKEN ==
                  static_cast<int>(VerifyFindingKind::FreeListBroken) &&
              CGC_VERIFY_FREE_RUN_BROKEN ==
                  static_cast<int>(VerifyFindingKind::FreeRunBroken) &&
              CGC_VERIFY_GUARD_SMASH ==
                  static_cast<int>(VerifyFindingKind::GuardSmash) &&
              CGC_VERIFY_ACCOUNTING ==
                  static_cast<int>(VerifyFindingKind::Accounting),
              "CGC_VERIFY_* drifted from VerifyFindingKind");
static_assert(CGC_REPAIR_NOT_ATTEMPTED ==
                  static_cast<int>(VerifyRepairOutcome::NotAttempted) &&
              CGC_REPAIR_REPAIRED ==
                  static_cast<int>(VerifyRepairOutcome::Repaired) &&
              CGC_REPAIR_QUARANTINED ==
                  static_cast<int>(VerifyRepairOutcome::Quarantined),
              "CGC_REPAIR_* drifted from VerifyRepairOutcome");
static_assert(CGC_INCIDENT_METADATA_WILD_WRITE ==
                      static_cast<int>(GcIncidentCause::MetadataWildWrite) &&
                  CGC_INCIDENT_FOREIGN_FREE ==
                      static_cast<int>(GcIncidentCause::ForeignFree),
              "incident cause drifted");
static_assert(CGC_FAULT_METADATA_HEADER_FLIP ==
                  static_cast<int>(FaultSite::MetadataHeaderFlip) &&
              CGC_FAULT_METADATA_FREE_LIST_SMASH ==
                  static_cast<int>(FaultSite::MetadataFreeListSmash) &&
              CGC_FAULT_METADATA_PAGE_MAP_CLOBBER ==
                  static_cast<int>(FaultSite::MetadataPageMapClobber) &&
              CGC_FAULT_METADATA_ALLOC_BIT_FLIP ==
                  static_cast<int>(FaultSite::MetadataAllocBitFlip),
              "CGC_FAULT_* drifted from FaultSite");

static void fillRepairStats(cgc_repair_stats *Out, const GcRepairStats &In) {
  Out->verify_repairs_run = In.VerifyRepairsRun;
  Out->findings_repaired = In.FindingsRepaired;
  Out->blocks_quarantined = In.BlocksQuarantined;
  Out->pages_quarantined = In.PagesQuarantined;
  Out->free_list_rebuilds = In.FreeListRebuilds;
  Out->page_map_rederivations = In.PageMapRederivations;
  Out->counters_resynced = In.CountersResynced;
  Out->collections_retried = In.CollectionsRetried;
  Out->metadata_wild_writes = In.MetadataWildWrites;
  Out->seal_transitions = In.SealTransitions;
  Out->seal_nanos = In.SealNanos;
  Out->degraded_mode = In.DegradedMode ? 1 : 0;
}

/// Streams one report's findings through the C callback.  The C struct
/// borrows each finding's message string, so the callback contract (the
/// pointer dies with the call) keeps this allocation-free per finding.
static void streamFindings(const HeapVerifyReport &Report,
                           cgc_verify_report_fn Fn, void *ClientData) {
  for (const VerifyFinding &F : Report.Findings) {
    cgc_verify_finding C;
    C.kind = static_cast<int>(F.Kind);
    C.message = F.Message.c_str();
    C.page = F.Page;
    C.block = F.Block;
    C.outcome = static_cast<int>(F.Outcome);
    Fn(&C, ClientData);
  }
}

size_t cgc_verify_heap_report(cgc_collector *GC, cgc_verify_report_fn Fn,
                              void *ClientData) {
  HeapVerifyReport Result = GC->GC.verifyHeapReport();
  if (Fn)
    streamFindings(Result, Fn, ClientData);
  return Result.Findings.size();
}

int cgc_verify_and_repair(cgc_collector *GC, cgc_verify_report_fn Fn,
                          void *ClientData, cgc_repair_stats *Out) {
  HeapVerifyReport Report = GC->GC.verifyAndRepair();
  if (Fn)
    streamFindings(Report, Fn, ClientData);
  if (Out)
    fillRepairStats(Out, GC->GC.repairStats());
  return (Report.clean() || Report.RepairedClean) ? 1 : 0;
}

void cgc_get_repair_stats(cgc_collector *GC, cgc_repair_stats *Out) {
  if (Out)
    fillRepairStats(Out, GC->GC.repairStats());
}

int cgc_fault_injection_available(void) {
  return FaultInjectionCompiled ? 1 : 0;
}

/// Maps a CGC_FAULT_* constant onto the C++ enum; returns false for
/// out-of-range sites so bad input is a no-op rather than UB.
static bool convertFaultSite(int Site, FaultSite &Out) {
  if (Site < 0 || static_cast<unsigned>(Site) >= NumFaultSites)
    return false;
  Out = static_cast<FaultSite>(Site);
  return true;
}

void cgc_fault_arm(int Site, unsigned long long SkipHits,
                   unsigned long long FailCount) {
  FaultSite S;
  if (convertFaultSite(Site, S))
    FaultInjector::instance().arm(S, SkipHits, FailCount);
}

void cgc_fault_arm_random(int Site, double Probability,
                          unsigned long long Seed) {
  FaultSite S;
  if (convertFaultSite(Site, S))
    FaultInjector::instance().armRandom(S, Probability, Seed);
}

void cgc_fault_disarm_all(void) { FaultInjector::instance().disarmAll(); }

unsigned long long cgc_fault_fired(int Site) {
  FaultSite S;
  if (!convertFaultSite(Site, S))
    return 0;
  return FaultInjector::instance().stats(S).Fired;
}

unsigned cgc_add_gc_observer(cgc_collector *GC, cgc_gc_event_fn Fn,
                             void *ClientData) {
  if (!Fn)
    return 0;
  auto Adapter = std::make_unique<CEventObserver>(Fn, ClientData);
  Adapter->RegistrationId = GC->GC.addObserver(Adapter.get());
  unsigned Handle = Adapter->RegistrationId;
  GC->Observers.push_back(std::move(Adapter));
  return Handle;
}

int cgc_remove_gc_observer(cgc_collector *GC, unsigned Handle) {
  for (auto &Adapter : GC->Observers)
    if (Adapter && Adapter->RegistrationId == Handle) {
      bool Removed = GC->GC.removeObserver(Handle);
      // The adapter object itself is retained until cgc_destroy; see
      // CEventObserver.
      return Removed ? 1 : 0;
    }
  return 0;
}

unsigned cgc_add_roots(cgc_collector *GC, const void *Lo,
                       const void *Hi) {
  return GC->GC.addRootRange(Lo, Hi, RootEncoding::Native64,
                             RootSource::StaticData, "c-api-roots");
}

int cgc_remove_roots(cgc_collector *GC, unsigned Handle) {
  return GC->GC.removeRootRange(Handle) ? 1 : 0;
}

void cgc_exclude_roots(cgc_collector *GC, const void *Lo,
                       const void *Hi) {
  GC->GC.addRootExclusion(Lo, Hi);
}

void cgc_enable_stack_scanning(cgc_collector *GC) {
  GC->GC.enableMachineStackScanning();
}

void cgc_register_displacement(cgc_collector *GC, unsigned Displacement) {
  GC->GC.registerDisplacement(Displacement);
}

int cgc_register_finalizer(cgc_collector *GC, void *Obj,
                           cgc_finalizer_fn Fn, void *ClientData) {
  if (!Obj || !Fn || !GC->GC.isAllocated(Obj))
    return 0;
  GC->GC.registerFinalizer(
      Obj, [Fn, ClientData](void *P) { Fn(P, ClientData); });
  return 1;
}

int cgc_unregister_finalizer(cgc_collector *GC, void *Obj) {
  return GC->GC.unregisterFinalizer(Obj) ? 1 : 0;
}

size_t cgc_run_finalizers(cgc_collector *GC) {
  return GC->GC.runFinalizers();
}

int cgc_is_heap_ptr(cgc_collector *GC, const void *Ptr) {
  return GC->GC.isHeapPointer(Ptr) ? 1 : 0;
}

void *cgc_base(cgc_collector *GC, const void *Ptr) {
  return GC->GC.objectBase(Ptr);
}

size_t cgc_size(cgc_collector *GC, const void *Ptr) {
  return GC->GC.objectSizeOf(Ptr);
}

unsigned long long cgc_heap_committed_bytes(cgc_collector *GC) {
  return GC->GC.committedHeapBytes();
}

unsigned long long cgc_live_bytes(cgc_collector *GC) {
  return GC->GC.allocatedBytes();
}

unsigned long long cgc_collection_count(cgc_collector *GC) {
  return GC->GC.lifetimeStats().Collections;
}

unsigned long long cgc_blacklisted_pages(cgc_collector *GC) {
  return GC->GC.blacklistedPageCount();
}

void cgc_dump(cgc_collector *GC) { GC->GC.printReport(stderr); }

void cgc_sentinel_policy_init(cgc_sentinel_policy *Policy) {
  const SentinelPolicy Defaults{};
  if (Policy)
    mapSentinelPolicy(WriteToC(), *Policy, Defaults);
}

void cgc_sentinel_configure(cgc_collector *GC,
                            const cgc_sentinel_policy *Policy) {
  SentinelPolicy Resolved;
  if (Policy)
    mapSentinelPolicy(ReadFromC(), *Policy, Resolved);
  GC->GC.configureSentinel(Resolved);
}

int cgc_sentinel_get_stats(cgc_collector *GC, cgc_sentinel_stats *Out) {
  if (Out)
    std::memset(Out, 0, sizeof(*Out));
  GcSentinel *Sentinel = GC->GC.sentinel();
  if (!Sentinel)
    return 0;
  if (Out) {
    const GcSentinelStats &S = Sentinel->stats();
    Out->storms_detected = S.StormsDetected;
    Out->stack_clear_forces = S.StackClearForces;
    Out->blacklist_refreshes = S.BlacklistRefreshes;
    Out->interior_tightenings = S.InteriorTightenings;
    Out->incidents_raised = S.IncidentsRaised;
    Out->deescalations = S.Deescalations;
    Out->current_level = S.CurrentLevel;
  }
  return 1;
}

void cgc_set_incident_callback(cgc_collector *GC, cgc_incident_fn Fn,
                               void *ClientData) {
  GC->IncidentObserver.Fn = Fn;
  GC->IncidentObserver.ClientData = ClientData;
  if (Fn && GC->IncidentObserverId == 0) {
    GC->IncidentObserverId = GC->GC.addObserver(&GC->IncidentObserver);
  } else if (!Fn && GC->IncidentObserverId != 0) {
    GC->GC.removeObserver(GC->IncidentObserverId);
    GC->IncidentObserverId = 0;
  }
}

void *cgc_debug_malloc(cgc_collector *GC, size_t Bytes, const char *Site) {
  return finishAlloc(GC->GC.allocateTagged(Bytes, Site, ObjectKind::Normal));
}

void cgc_debug_flush_quarantine(cgc_collector *GC) {
  if (GC->GC.guards())
    GC->GC.flushQuarantine();
}

int cgc_debug_get_stats(cgc_collector *GC, cgc_guard_stats *Out) {
  if (Out)
    std::memset(Out, 0, sizeof(*Out));
  if (!GC->GC.guards())
    return 0;
  if (Out) {
    const GcGuardStats &S = GC->GC.guardStats();
    Out->guarded_allocations = S.GuardedAllocations;
    Out->guarded_frees = S.GuardedFrees;
    Out->quarantine_depth = S.QuarantineDepth;
    Out->quarantine_flushes = S.QuarantineFlushes;
    Out->header_smashes = S.HeaderSmashes;
    Out->redzone_smashes = S.RedzoneSmashes;
    Out->double_frees = S.DoubleFrees;
    Out->invalid_frees = S.InvalidFrees;
    Out->use_after_free_writes = S.UseAfterFreeWrites;
    Out->guard_slop_bytes = S.GuardSlopBytes;
    Out->leaked_objects = S.LeakedObjects;
    Out->leaked_bytes = S.LeakedBytes;
  }
  return 1;
}

unsigned long long cgc_debug_find_leaks(cgc_collector *GC, cgc_leak_fn Fn,
                                        void *User) {
  if (!GC->GC.guards())
    return 0;
  GcLeakReport Report = GC->GC.findLeaks();
  if (Fn)
    for (const GcLeakSite &Site : Report.Sites)
      Fn(Site.Site, Site.Objects, Site.Bytes, Site.FirstSeqno, User);
  return Report.TotalObjects;
}

void cgc_install_crash_reporter(void) { crash::install(); }

void cgc_dump_crash_report(int Fd) { crash::dump(Fd); }

} // extern "C"
