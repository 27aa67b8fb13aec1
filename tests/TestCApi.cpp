//===- tests/TestCApi.cpp - C API tests -----------------------------------===//

#include "capi/cgc.h"
#include "core/GcConfig.h"
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

namespace {

cgc_config testConfig() {
  cgc_config Config;
  cgc_config_init(&Config);
  Config.window_bytes = 256ULL << 20;
  Config.heap_base_offset = 16ULL << 20;
  Config.max_heap_bytes = 32ULL << 20;
  Config.gc_at_startup = 0;
  return Config;
}

struct CNode {
  CNode *Next;
  long Value;
};

} // namespace

TEST(CApi, ConfigDefaults) {
  cgc_config Config;
  cgc_config_init(&Config);
  EXPECT_EQ(Config.window_bytes, 4ULL << 30);
  EXPECT_EQ(Config.interior_policy, CGC_INTERIOR_ALL);
  EXPECT_EQ(Config.blacklist_mode, CGC_BLACKLIST_FLAT);
  EXPECT_EQ(Config.gc_at_startup, 1);
  cgc_config_init(nullptr); // Must not crash.
}

// Field-by-field audit: cgc_config_init must agree with the C++
// GcConfig defaults for EVERY field, so the C mirror cannot silently
// drift as knobs are added.
TEST(CApi, ConfigDefaultsMatchGcConfig) {
  cgc_config C;
  cgc_config_init(&C);
  cgc::GcConfig D;
  EXPECT_EQ(C.window_bytes, D.WindowBytes);
  EXPECT_EQ(C.max_heap_bytes, D.MaxHeapBytes);
  EXPECT_EQ(C.heap_base_offset, 0u) << "default placement is not Custom";
  EXPECT_EQ(C.heap_placement, CGC_PLACEMENT_HIGH_BITS_MIXED);
  EXPECT_EQ(C.heap_growth_pages, D.HeapGrowthPages);
  EXPECT_EQ(C.decommit_freed_pages, 1);
  EXPECT_EQ(C.interior_policy, CGC_INTERIOR_ALL);
  EXPECT_EQ(C.blacklist_mode, CGC_BLACKLIST_FLAT);
  EXPECT_EQ(C.blacklist_aging, D.BlacklistAging ? 1 : 0);
  EXPECT_EQ(C.hashed_blacklist_bits_log2, D.HashedBlacklistBitsLog2);
  EXPECT_EQ(C.gc_at_startup, D.GcAtStartup ? 1 : 0);
  EXPECT_EQ(C.lazy_sweep, D.LazySweep ? 1 : 0);
  EXPECT_EQ(C.root_scan_alignment, D.RootScanAlignment);
  EXPECT_EQ(C.heap_scan_alignment, D.HeapScanAlignment);
  EXPECT_EQ(C.mark_threads, D.MarkThreads);
  EXPECT_EQ(C.sweep_threads, D.SweepThreads);
  EXPECT_EQ(C.root_scan_threads, 1u);
  EXPECT_EQ(C.mutator_threads, D.MutatorThreads);
  EXPECT_EQ(C.thread_cache_slots, D.ThreadCacheSlots);
  EXPECT_EQ(C.all_interior_pointers_avoid_spans, 0);
  EXPECT_EQ(C.precise_free_slot_detection, 0);
  EXPECT_DOUBLE_EQ(C.collect_before_growth_ratio,
                   D.CollectBeforeGrowthRatio);
  EXPECT_EQ(C.min_heap_bytes_before_gc, D.MinHeapBytesBeforeGc);
  EXPECT_EQ(C.stack_clearing, CGC_STACK_CLEAR_OFF);
  EXPECT_EQ(C.stack_clear_chunk_bytes, D.StackClearChunkBytes);
  EXPECT_EQ(C.stack_clear_every_n_allocs, D.StackClearEveryNAllocs);
  EXPECT_EQ(C.avoid_trailing_zero_addresses,
            D.AvoidTrailingZeroAddresses ? 1 : 0);
  EXPECT_EQ(C.clear_freed_objects, 1);
  EXPECT_EQ(C.address_ordered_allocation, 1);
  EXPECT_EQ(C.verify_every_collection, D.VerifyEveryCollection ? 1 : 0);
  EXPECT_EQ(C.sentinel.enabled, D.Sentinel.Enabled ? 1 : 0);
  EXPECT_EQ(C.sentinel.window_collections, D.Sentinel.WindowCollections);
  EXPECT_EQ(C.sentinel.growth_floor_bytes, D.Sentinel.GrowthFloorBytes);
  EXPECT_DOUBLE_EQ(C.sentinel.growth_slope_fraction,
                   D.Sentinel.GrowthSlopeFraction);
  EXPECT_EQ(C.sentinel.min_growing_deltas, D.Sentinel.MinGrowingDeltas);
  EXPECT_EQ(C.sentinel.escalation_cooldown, D.Sentinel.EscalationCooldown);
  EXPECT_EQ(C.sentinel.tighten_cycles, D.Sentinel.TightenCycles);
  EXPECT_EQ(C.sentinel.calm_collections, D.Sentinel.CalmCollections);
  EXPECT_EQ(C.debug_guards, D.DebugGuards ? 1 : 0);
  EXPECT_EQ(C.guard_fatal, D.GuardFatal ? 1 : 0);
  EXPECT_EQ(C.quarantine_slots, D.QuarantineSlots);
  EXPECT_EQ(C.handshake_deadline_ms, D.HandshakeDeadlineMs);
  EXPECT_EQ(C.handshake_fatal, D.HandshakeFatal ? 1 : 0);
  EXPECT_EQ(C.suspend_signal, D.SuspendSignal);
  EXPECT_EQ(C.seal_metadata, D.SealMetadata ? 1 : 0);
  EXPECT_EQ(C.repair_fatal, D.RepairFatal ? 1 : 0);
}

// One row per field rule of the C mirror, read back through
// cgc_current_config: counts keep the default at 0, ratios at <= 0,
// alignments outside 1/2/4/8 and unknown enum values keep the default,
// exact fields copy verbatim, a legacy heap_base_offset forces Custom
// placement, and each reserved field reads back its fixed value.
TEST(CApi, ConfigFieldRulesReadBack) {
  struct Row {
    const char *Rule;
    void (*Set)(cgc_config &In);
    void (*Expect)(const cgc_config &Out, const cgc_config &Def);
    void (*AfterCreate)(cgc_collector *GC);
  };
#define KEEPS_DEFAULT(Field, Value)                                          \
  Row{#Field " = " #Value " keeps the default",                              \
      [](cgc_config &In) { In.Field = Value; },                              \
      [](const cgc_config &Out, const cgc_config &Def) {                     \
        EXPECT_EQ(Out.Field, Def.Field);                                     \
      },                                                                     \
      nullptr}
#define RESERVED_READS_BACK(Field, Value, Fixed)                             \
  Row{"reserved " #Field " = " #Value " reads back " #Fixed,                 \
      [](cgc_config &In) { In.Field = Value; },                              \
      [](const cgc_config &Out, const cgc_config &) {                        \
        EXPECT_EQ(Out.Field, Fixed);                                         \
      },                                                                     \
      nullptr}
  const Row Rows[] = {
      KEEPS_DEFAULT(window_bytes, 0),
      KEEPS_DEFAULT(max_heap_bytes, 0),
      KEEPS_DEFAULT(heap_growth_pages, 0),
      KEEPS_DEFAULT(hashed_blacklist_bits_log2, 0),
      KEEPS_DEFAULT(mark_threads, 0),
      KEEPS_DEFAULT(sweep_threads, 0),
      KEEPS_DEFAULT(mutator_threads, 0),
      KEEPS_DEFAULT(thread_cache_slots, 0),
      KEEPS_DEFAULT(min_heap_bytes_before_gc, 0),
      KEEPS_DEFAULT(stack_clear_chunk_bytes, 0),
      KEEPS_DEFAULT(stack_clear_every_n_allocs, 0),
      KEEPS_DEFAULT(sentinel.window_collections, 0),
      KEEPS_DEFAULT(sentinel.growth_floor_bytes, 0),
      KEEPS_DEFAULT(sentinel.escalation_cooldown, 0),
      KEEPS_DEFAULT(sentinel.tighten_cycles, 0),
      KEEPS_DEFAULT(sentinel.calm_collections, 0),
      KEEPS_DEFAULT(collect_before_growth_ratio, 0),
      KEEPS_DEFAULT(collect_before_growth_ratio, -1),
      KEEPS_DEFAULT(sentinel.growth_slope_fraction, 0),
      KEEPS_DEFAULT(sentinel.growth_slope_fraction, -1),
      KEEPS_DEFAULT(interior_policy, -1),
      KEEPS_DEFAULT(interior_policy, 99),
      KEEPS_DEFAULT(blacklist_mode, -1),
      KEEPS_DEFAULT(blacklist_mode, 99),
      KEEPS_DEFAULT(heap_placement, -1),
      KEEPS_DEFAULT(heap_placement, 99),
      KEEPS_DEFAULT(stack_clearing, -1),
      KEEPS_DEFAULT(stack_clearing, 99),
      KEEPS_DEFAULT(root_scan_alignment, 0),
      KEEPS_DEFAULT(root_scan_alignment, 3),
      KEEPS_DEFAULT(root_scan_alignment, 16),
      KEEPS_DEFAULT(heap_scan_alignment, 0),
      KEEPS_DEFAULT(heap_scan_alignment, 3),
      KEEPS_DEFAULT(heap_scan_alignment, 16),
      {"LOW_SBRK round-trips with no offset",
       [](cgc_config &In) { In.heap_placement = CGC_PLACEMENT_LOW_SBRK; },
       [](const cgc_config &Out, const cgc_config &) {
         EXPECT_EQ(Out.heap_placement, CGC_PLACEMENT_LOW_SBRK);
         EXPECT_EQ(Out.heap_base_offset, 0u);
       },
       nullptr},
      {"ASCII_RANGE round-trips with no offset",
       [](cgc_config &In) { In.heap_placement = CGC_PLACEMENT_ASCII_RANGE; },
       [](const cgc_config &Out, const cgc_config &) {
         EXPECT_EQ(Out.heap_placement, CGC_PLACEMENT_ASCII_RANGE);
         EXPECT_EQ(Out.heap_base_offset, 0u);
       },
       nullptr},
      {"legacy heap_base_offset forces CUSTOM over the default placement",
       [](cgc_config &In) { In.heap_base_offset = 16ULL << 20; },
       [](const cgc_config &Out, const cgc_config &) {
         EXPECT_EQ(Out.heap_placement, CGC_PLACEMENT_CUSTOM);
         EXPECT_EQ(Out.heap_base_offset, 16ULL << 20);
       },
       nullptr},
      {"legacy heap_base_offset forces CUSTOM over LOW_SBRK",
       [](cgc_config &In) {
         In.heap_placement = CGC_PLACEMENT_LOW_SBRK;
         In.heap_base_offset = 16ULL << 20;
       },
       [](const cgc_config &Out, const cgc_config &) {
         EXPECT_EQ(Out.heap_placement, CGC_PLACEMENT_CUSTOM);
         EXPECT_EQ(Out.heap_base_offset, 16ULL << 20);
       },
       nullptr},
      {"CUSTOM uses heap_base_offset even when it is 0",
       [](cgc_config &In) { In.heap_placement = CGC_PLACEMENT_CUSTOM; },
       [](const cgc_config &Out, const cgc_config &) {
         EXPECT_EQ(Out.heap_placement, CGC_PLACEMENT_CUSTOM);
         EXPECT_EQ(Out.heap_base_offset, 0u);
       },
       nullptr},
      RESERVED_READS_BACK(all_interior_pointers_avoid_spans, 5, 0),
      RESERVED_READS_BACK(decommit_freed_pages, 0, 1),
      RESERVED_READS_BACK(clear_freed_objects, 0, 1),
      RESERVED_READS_BACK(address_ordered_allocation, 0, 1),
      RESERVED_READS_BACK(precise_free_slot_detection, 1, 0),
      RESERVED_READS_BACK(root_scan_threads, 2u, 1u),
      {"exact fields copy 0 verbatim",
       [](cgc_config &In) {
         In.quarantine_slots = 0;
         In.handshake_deadline_ms = 0;
         In.sentinel.min_growing_deltas = 0;
       },
       [](const cgc_config &Out, const cgc_config &) {
         EXPECT_EQ(Out.quarantine_slots, 0u);
         EXPECT_EQ(Out.handshake_deadline_ms, 0u);
         EXPECT_EQ(Out.sentinel.min_growing_deltas, 0u);
       },
       nullptr},
      {"a negative suspend_signal copies verbatim",
       [](cgc_config &In) { In.suspend_signal = -1; },
       [](const cgc_config &Out, const cgc_config &) {
         EXPECT_EQ(Out.suspend_signal, -1);
       },
       nullptr},
      {"cgc_sentinel_configure(NULL) restores the default policy",
       [](cgc_config &In) {
         In.sentinel.enabled = 1;
         In.sentinel.window_collections = 6;
         In.sentinel.min_growing_deltas = 4;
       },
       [](const cgc_config &Out, const cgc_config &Def) {
         EXPECT_EQ(Out.sentinel.enabled, Def.sentinel.enabled);
         EXPECT_EQ(Out.sentinel.window_collections,
                   Def.sentinel.window_collections);
         EXPECT_EQ(Out.sentinel.min_growing_deltas,
                   Def.sentinel.min_growing_deltas);
       },
       [](cgc_collector *GC) { cgc_sentinel_configure(GC, nullptr); }},
  };
#undef KEEPS_DEFAULT
#undef RESERVED_READS_BACK

  cgc_config Def;
  cgc_config_init(&Def);
  // The row is named by hand, not with SCOPED_TRACE: gtest keeps the
  // trace stack where the malloc-redirect shim's collector cannot see
  // it, and this test also runs under the shim.
  for (const Row &R : Rows) {
    cgc_config In = Def;
    In.max_heap_bytes = 32ULL << 20;
    In.gc_at_startup = 0;
    R.Set(In);
    cgc_collector *GC = cgc_create(&In);
    ASSERT_NE(GC, nullptr) << R.Rule;
    if (R.AfterCreate)
      R.AfterCreate(GC);
    cgc_config Out;
    cgc_current_config(GC, &Out);
    bool FailedBefore = HasFailure();
    R.Expect(Out, Def);
    EXPECT_EQ(HasFailure(), FailedBefore) << "in row: " << R.Rule;
    cgc_destroy(GC);
  }
}

// Every field set to a non-default value must round-trip through
// cgc_create -> cgc_current_config unchanged; the reserved fields read
// back their fixed values instead.
TEST(CApi, ConfigRoundTripsThroughCollector) {
  cgc_config In;
  cgc_config_init(&In);
  In.window_bytes = 512ULL << 20;
  In.max_heap_bytes = 64ULL << 20;
  In.heap_placement = CGC_PLACEMENT_CUSTOM;
  In.heap_base_offset = 32ULL << 20;
  In.heap_growth_pages = 128;
  In.decommit_freed_pages = 0;
  In.interior_policy = CGC_INTERIOR_FIRST_PAGE;
  In.blacklist_mode = CGC_BLACKLIST_HASHED;
  In.blacklist_aging = 0;
  In.hashed_blacklist_bits_log2 = 12;
  In.gc_at_startup = 0;
  In.lazy_sweep = 1;
  In.root_scan_alignment = 8;
  In.heap_scan_alignment = 4;
  In.mark_threads = 3;
  In.sweep_threads = 5;
  In.root_scan_threads = 2;
  In.mutator_threads = 7;
  In.thread_cache_slots = 16;
  In.precise_free_slot_detection = 1;
  In.collect_before_growth_ratio = 0.75;
  In.min_heap_bytes_before_gc = 2ULL << 20;
  In.stack_clearing = CGC_STACK_CLEAR_CHEAP;
  In.stack_clear_chunk_bytes = 8192;
  In.stack_clear_every_n_allocs = 32;
  In.avoid_trailing_zero_addresses = 0;
  In.clear_freed_objects = 0;
  In.address_ordered_allocation = 0;
  In.verify_every_collection = 1;
  In.sentinel.enabled = 1;
  In.sentinel.window_collections = 6;
  In.sentinel.growth_floor_bytes = 2ULL << 20;
  In.sentinel.growth_slope_fraction = 0.125;
  In.sentinel.min_growing_deltas = 4;
  In.sentinel.escalation_cooldown = 3;
  In.sentinel.tighten_cycles = 12;
  In.sentinel.calm_collections = 7;
  In.handshake_deadline_ms = 250;
  In.handshake_fatal = 1;
  In.suspend_signal = -1; // Installs no signal handler.
  In.seal_metadata = 1;
  In.repair_fatal = 0;

  cgc_collector *GC = cgc_create(&In);
  ASSERT_NE(GC, nullptr);
  cgc_config Out;
  std::memset(&Out, 0xff, sizeof(Out)); // Poison: every field must be set.
  cgc_current_config(GC, &Out);
  EXPECT_EQ(Out.window_bytes, In.window_bytes);
  EXPECT_EQ(Out.max_heap_bytes, In.max_heap_bytes);
  EXPECT_EQ(Out.heap_placement, CGC_PLACEMENT_CUSTOM);
  EXPECT_EQ(Out.heap_base_offset, In.heap_base_offset);
  EXPECT_EQ(Out.heap_growth_pages, In.heap_growth_pages);
  EXPECT_EQ(Out.decommit_freed_pages, 1);
  EXPECT_EQ(Out.interior_policy, In.interior_policy);
  EXPECT_EQ(Out.blacklist_mode, In.blacklist_mode);
  EXPECT_EQ(Out.blacklist_aging, In.blacklist_aging);
  EXPECT_EQ(Out.hashed_blacklist_bits_log2, In.hashed_blacklist_bits_log2);
  EXPECT_EQ(Out.gc_at_startup, In.gc_at_startup);
  EXPECT_EQ(Out.lazy_sweep, In.lazy_sweep);
  EXPECT_EQ(Out.root_scan_alignment, In.root_scan_alignment);
  EXPECT_EQ(Out.heap_scan_alignment, In.heap_scan_alignment);
  EXPECT_EQ(Out.mark_threads, In.mark_threads);
  EXPECT_EQ(Out.sweep_threads, In.sweep_threads);
  EXPECT_EQ(Out.root_scan_threads, 1u);
  EXPECT_EQ(Out.mutator_threads, In.mutator_threads);
  EXPECT_EQ(Out.thread_cache_slots, In.thread_cache_slots);
  EXPECT_EQ(Out.all_interior_pointers_avoid_spans, 0);
  EXPECT_EQ(Out.precise_free_slot_detection, 0);
  EXPECT_DOUBLE_EQ(Out.collect_before_growth_ratio,
                   In.collect_before_growth_ratio);
  EXPECT_EQ(Out.min_heap_bytes_before_gc, In.min_heap_bytes_before_gc);
  EXPECT_EQ(Out.stack_clearing, In.stack_clearing);
  EXPECT_EQ(Out.stack_clear_chunk_bytes, In.stack_clear_chunk_bytes);
  EXPECT_EQ(Out.stack_clear_every_n_allocs, In.stack_clear_every_n_allocs);
  EXPECT_EQ(Out.avoid_trailing_zero_addresses,
            In.avoid_trailing_zero_addresses);
  EXPECT_EQ(Out.clear_freed_objects, 1);
  EXPECT_EQ(Out.address_ordered_allocation, 1);
  EXPECT_EQ(Out.verify_every_collection, In.verify_every_collection);
  EXPECT_EQ(Out.sentinel.enabled, In.sentinel.enabled);
  EXPECT_EQ(Out.sentinel.window_collections, In.sentinel.window_collections);
  EXPECT_EQ(Out.sentinel.growth_floor_bytes, In.sentinel.growth_floor_bytes);
  EXPECT_DOUBLE_EQ(Out.sentinel.growth_slope_fraction,
                   In.sentinel.growth_slope_fraction);
  EXPECT_EQ(Out.sentinel.min_growing_deltas, In.sentinel.min_growing_deltas);
  EXPECT_EQ(Out.sentinel.escalation_cooldown, In.sentinel.escalation_cooldown);
  EXPECT_EQ(Out.sentinel.tighten_cycles, In.sentinel.tighten_cycles);
  EXPECT_EQ(Out.sentinel.calm_collections, In.sentinel.calm_collections);
  EXPECT_EQ(Out.handshake_deadline_ms, In.handshake_deadline_ms);
  EXPECT_EQ(Out.handshake_fatal, In.handshake_fatal);
  EXPECT_EQ(Out.suspend_signal, In.suspend_signal);
  EXPECT_EQ(Out.seal_metadata, In.seal_metadata);
  EXPECT_EQ(Out.repair_fatal, In.repair_fatal);
  cgc_destroy(GC);

  // The guarded-heap fields need their own input: debug_guards forces
  // lazy_sweep off, which would clash with lazy_sweep = 1 above.
  cgc_config Guarded;
  cgc_config_init(&Guarded);
  Guarded.max_heap_bytes = 32ULL << 20;
  Guarded.gc_at_startup = 0;
  Guarded.debug_guards = 1;
  Guarded.guard_fatal = 0;
  Guarded.quarantine_slots = 17;
  GC = cgc_create(&Guarded);
  ASSERT_NE(GC, nullptr);
  std::memset(&Out, 0xff, sizeof(Out));
  cgc_current_config(GC, &Out);
  EXPECT_EQ(Out.debug_guards, 1);
  EXPECT_EQ(Out.guard_fatal, 0);
  EXPECT_EQ(Out.quarantine_slots, 17u);
  EXPECT_EQ(Out.lazy_sweep, 0);
  cgc_destroy(GC);
}

TEST(CApi, SweepThreadsAccessors) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  EXPECT_EQ(cgc_sweep_threads(GC), 1u);
  cgc_set_sweep_threads(GC, 4);
  EXPECT_EQ(cgc_sweep_threads(GC), 4u);
  cgc_set_sweep_threads(GC, 0); // 0 means sequential.
  EXPECT_EQ(cgc_sweep_threads(GC), 1u);

  // A parallel-sweep collection through the C API behaves like the
  // sequential one: the unrooted object is reclaimed.
  cgc_set_sweep_threads(GC, 4);
  void *P = cgc_malloc(GC, 64);
  ASSERT_NE(P, nullptr);
  unsigned long long Freed = cgc_gcollect(GC);
  EXPECT_GE(Freed, 64u);
  EXPECT_EQ(cgc_live_bytes(GC), 0u);
  cgc_destroy(GC);
}

TEST(CApi, CreateAllocateCollectDestroy) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  ASSERT_NE(GC, nullptr);

  void *P = cgc_malloc(GC, 64);
  ASSERT_NE(P, nullptr);
  // Zero-initialized.
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(static_cast<unsigned char *>(P)[I], 0);
  EXPECT_TRUE(cgc_is_heap_ptr(GC, P));
  EXPECT_FALSE(cgc_is_heap_ptr(GC, &Config));
  EXPECT_EQ(cgc_size(GC, P), 64u);
  EXPECT_EQ(cgc_base(GC, static_cast<char *>(P) + 30), P);

  unsigned long long Freed = cgc_gcollect(GC);
  EXPECT_GE(Freed, 64u) << "unrooted object must be reclaimed";
  EXPECT_EQ(cgc_live_bytes(GC), 0u);
  EXPECT_EQ(cgc_collection_count(GC), 1u);
  cgc_destroy(GC);
}

namespace {
/// The number of bytes in [P, P + Bytes) that are not zero.
size_t staleBytes(const void *P, size_t Bytes) {
  const auto *B = static_cast<const unsigned char *>(P);
  return static_cast<size_t>(
      std::count_if(B, B + Bytes, [](unsigned char C) { return C != 0; }));
}
} // namespace

// cgc.h promises that all memory is zero-initialized.  Each reuse path
// must keep that promise whatever the reserved heap fields say: a large
// run reused after cgc_free or after a sweep, small blocks carved from
// a freed large object's pages, and slots a registered thread takes
// from its cache after frees.
TEST(CApi, ReusedMemoryIsZeroWhateverTheReservedHeapFields) {
  struct Row {
    const char *Name;
    void (*Set)(cgc_config &Config);
  };
  const Row Rows[] = {
      {"decommit_freed_pages = 0",
       [](cgc_config &C) { C.decommit_freed_pages = 0; }},
      {"decommit_freed_pages = 1",
       [](cgc_config &C) { C.decommit_freed_pages = 1; }},
      {"clear_freed_objects = 0",
       [](cgc_config &C) { C.clear_freed_objects = 0; }},
      {"clear_freed_objects = 1",
       [](cgc_config &C) { C.clear_freed_objects = 1; }},
      {"address_ordered_allocation = 0",
       [](cgc_config &C) { C.address_ordered_allocation = 0; }},
      {"address_ordered_allocation = 1",
       [](cgc_config &C) { C.address_ordered_allocation = 1; }},
      {"precise_free_slot_detection = 1",
       [](cgc_config &C) { C.precise_free_slot_detection = 1; }},
      {"precise_free_slot_detection = 0",
       [](cgc_config &C) { C.precise_free_slot_detection = 0; }},
  };
  constexpr size_t Large = 64 << 10;
  constexpr size_t Small = 48;
  constexpr size_t SmallCount = 2048;
  // Rows are named by hand, not with SCOPED_TRACE (see
  // ConfigFieldRulesReadBack): this test also runs under the shim.
  for (const Row &R : Rows) {
    cgc_config Config = testConfig();
    R.Set(Config);
    cgc_collector *GC = cgc_create(&Config);
    ASSERT_NE(GC, nullptr) << R.Name;

    void *P = cgc_malloc(GC, Large);
    ASSERT_NE(P, nullptr) << R.Name;
    std::memset(P, 0xAB, Large);
    cgc_free(GC, P);
    P = cgc_malloc(GC, Large);
    ASSERT_NE(P, nullptr) << R.Name;
    EXPECT_EQ(staleBytes(P, Large), 0u)
        << R.Name << ": large object reused after cgc_free";

    // Stack scanning is off, so nothing retains P across the sweep.
    std::memset(P, 0xAB, Large);
    cgc_gcollect(GC);
    P = cgc_malloc(GC, Large);
    ASSERT_NE(P, nullptr) << R.Name;
    EXPECT_EQ(staleBytes(P, Large), 0u)
        << R.Name << ": large object reused after a sweep";

    std::memset(P, 0xAB, Large);
    cgc_free(GC, P);
    size_t Stale = 0;
    for (size_t I = 0; I != SmallCount; ++I) {
      void *S = cgc_malloc(GC, Small);
      ASSERT_NE(S, nullptr) << R.Name;
      Stale += staleBytes(S, Small);
    }
    EXPECT_EQ(Stale, 0u)
        << R.Name << ": small objects on a freed large object's pages";

    size_t CachedStale = 0;
    bool Registered = false;
    std::thread([&] {
      if (!cgc_register_thread(GC))
        return;
      Registered = true;
      void *Big = cgc_malloc(GC, Large);
      std::memset(Big, 0xAB, Large);
      cgc_free(GC, Big);
      std::vector<void *> Freed;
      for (size_t I = 0; I != SmallCount / 8; ++I) {
        void *S = cgc_malloc(GC, Small);
        std::memset(S, 0xAB, Small);
        Freed.push_back(S);
      }
      for (void *S : Freed)
        cgc_free(GC, S);
      for (size_t I = 0; I != SmallCount; ++I)
        CachedStale += staleBytes(cgc_malloc(GC, Small), Small);
      cgc_unregister_thread(GC);
    }).join();
    EXPECT_TRUE(Registered) << R.Name;
    EXPECT_EQ(CachedStale, 0u)
        << R.Name << ": thread-cached allocations after frees";
    cgc_destroy(GC);
  }
}

TEST(CApi, RootsKeepObjectsAlive) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  static CNode *Head; // Static so the compiler cannot hide it.
  Head = nullptr;
  for (int I = 0; I != 100; ++I) {
    auto *N = static_cast<CNode *>(cgc_malloc(GC, sizeof(CNode)));
    N->Next = Head;
    N->Value = I;
    Head = N;
  }
  unsigned Handle = cgc_add_roots(GC, &Head, &Head + 1);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 100 * sizeof(CNode));
  long Sum = 0;
  for (CNode *N = Head; N; N = N->Next)
    Sum += N->Value;
  EXPECT_EQ(Sum, 4950);

  EXPECT_EQ(cgc_remove_roots(GC, Handle), 1);
  EXPECT_EQ(cgc_remove_roots(GC, Handle), 0);
  Head = nullptr;
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 0u);
  cgc_destroy(GC);
}

TEST(CApi, AtomicAndUncollectable) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  // An uncollectable object holding the only pointer to a chain: both
  // survive without any registered roots.
  auto *Anchor = static_cast<CNode *>(
      cgc_malloc_uncollectable(GC, sizeof(CNode)));
  Anchor->Next = static_cast<CNode *>(cgc_malloc(GC, sizeof(CNode)));
  // A pointer inside atomic memory retains nothing.
  auto **Atomic = static_cast<void **>(cgc_malloc_atomic(GC, 64));
  Atomic[0] = cgc_malloc(GC, 32);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 2 * sizeof(CNode))
      << "anchor + its chain; atomic object and its secret are gone";
  cgc_free(GC, Anchor);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 0u);
  cgc_destroy(GC);
}

TEST(CApi, FinalizersWithClientData) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  int Ran = 0;
  void *Obj = cgc_malloc(GC, 32);
  ASSERT_EQ(cgc_register_finalizer(
                GC, Obj,
                [](void *, void *Client) { ++*static_cast<int *>(Client); },
                &Ran),
            1);
  // Registration on garbage pointers fails cleanly.
  EXPECT_EQ(cgc_register_finalizer(GC, nullptr, nullptr, nullptr), 0);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_run_finalizers(GC), 1u);
  EXPECT_EQ(Ran, 1);
  cgc_destroy(GC);
}

TEST(CApi, IgnoreOffPageAndExclusions) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  void *Big = cgc_malloc_ignore_off_page(GC, 32 * 4096);
  ASSERT_NE(Big, nullptr);
  EXPECT_EQ(cgc_size(GC, Big), 32u * 4096u);

  // Root buffer with the reference hidden behind an exclusion.
  static void *Slot;
  Slot = Big;
  cgc_add_roots(GC, &Slot, &Slot + 1);
  cgc_exclude_roots(GC, &Slot, &Slot + 1);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 0u) << "excluded root must not retain";
  cgc_destroy(GC);
}

TEST(CApi, StackScanningEndToEnd) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  cgc_enable_stack_scanning(GC);
  auto *N = static_cast<CNode *>(cgc_malloc(GC, sizeof(CNode)));
  N->Value = 42;
  __asm__ volatile("" ::"r"(N) : "memory");
  cgc_gcollect(GC);
  EXPECT_EQ(N->Value, 42) << "stack-referenced object survives";
  EXPECT_GE(cgc_live_bytes(GC), sizeof(CNode));
  cgc_destroy(GC);
}

namespace {
// C function pointers cannot capture, so the OOM/warn tests talk
// through file-scope state.
size_t OomHandlerCalls;
size_t OomRequestedBytes;
size_t WarnCalls;
} // namespace

// Drives the allocation ladder to exhaustion through the C API: every
// rung (collect, lazy-sweep flush, grow, emergency collect) fails on a
// heap pinned full of uncollectable objects, so the installed handler
// must be invoked — exactly once per failed request, with the
// requested size — and the allocation must return its result instead
// of aborting.
TEST(CApi, OomHandlerRunsWhenLadderExhausted) {
  cgc_config Config = testConfig();
  Config.max_heap_bytes = 2ULL << 20;
  cgc_collector *GC = cgc_create(&Config);
  cgc_set_oom_handler(
      GC,
      [](size_t Bytes, void *) -> void * {
        ++OomHandlerCalls;
        OomRequestedBytes = Bytes;
        return nullptr;
      },
      nullptr);
  cgc_set_warn_proc(
      GC, [](const char *, unsigned long long, void *) { ++WarnCalls; },
      nullptr);
  OomHandlerCalls = 0;
  OomRequestedBytes = 0;
  WarnCalls = 0;

  // Pin the whole heap: uncollectable objects survive every rung's
  // collection.
  std::vector<void *> Pinned;
  while (void *P = cgc_malloc_uncollectable(GC, 4096))
    Pinned.push_back(P);

  EXPECT_EQ(OomHandlerCalls, 1u) << "handler runs once per failed request";
  EXPECT_EQ(OomRequestedBytes, 4096u);
  EXPECT_FALSE(Pinned.empty());
  EXPECT_GE(WarnCalls, 1u)
      << "no-progress collections under pressure must warn";

  // The heap is saturated but intact.
  EXPECT_EQ(cgc_verify_heap(GC, nullptr, 0), 0u);

  // Free everything; allocation works again without handler calls.
  OomHandlerCalls = 0;
  for (void *P : Pinned)
    cgc_free(GC, P);
  void *After = cgc_malloc(GC, 4096);
  EXPECT_NE(After, nullptr);
  EXPECT_EQ(OomHandlerCalls, 0u);
  cgc_destroy(GC);
}

TEST(CApi, FailedAllocationsSetErrnoToEnomem) {
  // The malloc-compatibility contract (satellite of the redirect
  // layer): every C-API allocation entry point returns NULL with
  // errno=ENOMEM on failure, so interposed callers see exact libc
  // semantics.
  cgc_config Config = testConfig();
  Config.max_heap_bytes = 2ULL << 20;
  cgc_collector *GC = cgc_create(&Config);
  cgc_set_warn_proc(
      GC, [](const char *, unsigned long long, void *) {}, nullptr);

  // A request larger than the whole heap fails on every entry point.
  constexpr size_t TooBig = 64ULL << 20;
  errno = 0;
  EXPECT_EQ(cgc_malloc(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  errno = 0;
  EXPECT_EQ(cgc_malloc_atomic(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  errno = 0;
  EXPECT_EQ(cgc_malloc_uncollectable(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  errno = 0;
  EXPECT_EQ(cgc_malloc_atomic_uncollectable(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  errno = 0;
  EXPECT_EQ(cgc_malloc_ignore_off_page(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);

  // Genuine exhaustion (ladder runs dry) reports the same way.
  std::vector<void *> Pinned;
  errno = 0;
  while (void *P = cgc_malloc_uncollectable(GC, 4096)) {
    Pinned.push_back(P);
    errno = 0;
  }
  EXPECT_EQ(errno, ENOMEM);
  EXPECT_FALSE(Pinned.empty());

  for (void *P : Pinned)
    cgc_free(GC, P);
  void *After = cgc_malloc(GC, 4096);
  EXPECT_NE(After, nullptr);
  cgc_destroy(GC);
}

TEST(CApi, VerifyHeapReportsCleanAndFillsBuffer) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  for (int I = 0; I != 64; ++I)
    cgc_malloc(GC, 48);
  cgc_gcollect(GC);
  char Report[256];
  std::memset(Report, 'x', sizeof(Report));
  EXPECT_EQ(cgc_verify_heap(GC, Report, sizeof(Report)), 0u);
  EXPECT_EQ(Report[0], '\0') << "clean heap yields an empty report";
  cgc_destroy(GC);
}

namespace {
// Captured copy of one streamed finding (the message pointer is only
// valid during the callback, so the capture deep-copies it).
struct CapturedFinding {
  int Kind;
  std::string Message;
  unsigned long long Page;
  unsigned Block;
  int Outcome;
};

void captureFinding(const cgc_verify_finding *F, void *ClientData) {
  auto *Out = static_cast<std::vector<CapturedFinding> *>(ClientData);
  Out->push_back({F->kind, F->message ? F->message : "", F->page, F->block,
                  F->outcome});
}
} // namespace

// The structured report streams typed findings through the callback:
// a clean heap streams nothing; a guarded heap with a smashed redzone
// (client-memory damage the test itself inflicts, no fault injection
// needed) streams a GUARD_SMASH finding whose message matches the
// legacy text report.
TEST(CApi, VerifyHeapReportStreamsStructuredFindings) {
  cgc_config Config = testConfig();
  Config.debug_guards = 1;
  Config.guard_fatal = 0;
  cgc_collector *GC = cgc_create(&Config);

  std::vector<CapturedFinding> Findings;
  EXPECT_EQ(cgc_verify_heap_report(GC, captureFinding, &Findings), 0u);
  EXPECT_TRUE(Findings.empty());
  // NULL callback just counts.
  EXPECT_EQ(cgc_verify_heap_report(GC, nullptr, nullptr), 0u);

  void *Obj = CGC_MALLOC_SITE(GC, 64);
  ASSERT_NE(Obj, nullptr);
  std::memset(static_cast<char *>(Obj) + 64, 0xAB, 4); // Smash the redzone.

  size_t Count = cgc_verify_heap_report(GC, captureFinding, &Findings);
  ASSERT_GE(Count, 1u);
  EXPECT_EQ(Count, Findings.size());
  EXPECT_EQ(Findings[0].Kind, CGC_VERIFY_GUARD_SMASH);
  EXPECT_NE(Findings[0].Message.find("redzone"), std::string::npos);
  EXPECT_EQ(Findings[0].Outcome, CGC_REPAIR_NOT_ATTEMPTED);

  // Guard smashes are client-memory damage, not metadata: repair
  // streams them with outcome not-attempted but still reports the
  // *metadata* clean — there is nothing for it to fix.
  Findings.clear();
  cgc_repair_stats Stats;
  std::memset(&Stats, 0xff, sizeof(Stats));
  EXPECT_EQ(cgc_verify_and_repair(GC, captureFinding, &Findings, &Stats), 1);
  ASSERT_GE(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].Kind, CGC_VERIFY_GUARD_SMASH);
  EXPECT_EQ(Findings[0].Outcome, CGC_REPAIR_NOT_ATTEMPTED);
  EXPECT_GE(Stats.verify_repairs_run, 1ull);
  EXPECT_EQ(Stats.degraded_mode, 0);
  cgc_destroy(GC);
}

// A metadata corruption injected at collection entry must ride the
// whole containment ladder through the C surface: detected by the
// per-phase verifier, collection abandoned, heap repaired, cycle
// retried — and the lifetime counters must say so.
TEST(CApi, VerifyAndRepairAfterInjectedCorruption) {
  if (!cgc_fault_injection_available())
    GTEST_SKIP() << "fault-injection hooks compiled out";

  cgc_config Config = testConfig();
  Config.verify_every_collection = 1;
  Config.repair_fatal = 0;
  cgc_collector *GC = cgc_create(&Config);

  // Rooted survivors so live blocks exist for the fault to flip.
  static void *Keep[16];
  std::memset(Keep, 0, sizeof(Keep));
  cgc_add_roots(GC, Keep, Keep + 16);
  for (int I = 0; I != 16; ++I)
    Keep[I] = cgc_malloc(GC, 48);

  cgc_fault_arm(CGC_FAULT_METADATA_HEADER_FLIP, 0, 1);
  cgc_gcollect(GC);
  cgc_fault_disarm_all();
  EXPECT_EQ(cgc_fault_fired(CGC_FAULT_METADATA_HEADER_FLIP), 1ull);

  cgc_repair_stats Stats;
  cgc_get_repair_stats(GC, &Stats);
  EXPECT_GE(Stats.collections_retried, 1ull);
  EXPECT_GE(Stats.verify_repairs_run, 1ull);
  EXPECT_GE(Stats.counters_resynced, 1ull);
  EXPECT_EQ(Stats.degraded_mode, 0);

  // The repaired heap verifies clean and the survivors are intact.
  EXPECT_EQ(cgc_verify_heap_report(GC, nullptr, nullptr), 0u);
  EXPECT_EQ(cgc_verify_and_repair(GC, nullptr, nullptr, nullptr), 1);
  EXPECT_GE(cgc_live_bytes(GC), 16ull * 48ull);
  cgc_destroy(GC);
}

// The fault-injection controls are exposed through the C API so C
// harnesses can script failure scenarios; arena-grow failure must be
// absorbed by the ladder (collect/retry), not surfaced to the caller.
TEST(CApi, FaultInjectionControls) {
  if (!cgc_fault_injection_available())
    GTEST_SKIP() << "fault-injection hooks compiled out";

  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  unsigned long long FiredBefore = cgc_fault_fired(CGC_FAULT_ARENA_GROW);
  cgc_fault_arm(CGC_FAULT_ARENA_GROW, 0, 1);
  // First allocation needs pages; the injected grow failure forces the
  // ladder, which retries after its rungs and succeeds.
  void *P = cgc_malloc(GC, 64);
  EXPECT_NE(P, nullptr);
  cgc_fault_disarm_all();
  EXPECT_EQ(cgc_fault_fired(CGC_FAULT_ARENA_GROW), FiredBefore + 1);

  // Out-of-range sites are ignored, not UB.
  cgc_fault_arm(99, 0, 1);
  EXPECT_EQ(cgc_fault_fired(99), 0u);
  cgc_fault_disarm_all();
  cgc_destroy(GC);
}

TEST(CApi, SentinelConfigureStatsAndIncidentCallback) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);

  cgc_sentinel_stats Stats;
  EXPECT_EQ(cgc_sentinel_get_stats(GC, &Stats), 0)
      << "the sentinel is off by default";

  cgc_sentinel_policy Policy;
  cgc_sentinel_policy_init(&Policy);
  EXPECT_EQ(Policy.enabled, 0);
  EXPECT_EQ(Policy.window_collections, 8u);
  Policy.enabled = 1;
  Policy.window_collections = 4;
  Policy.growth_floor_bytes = 4 << 10;
  Policy.growth_slope_fraction = 0.001;
  Policy.escalation_cooldown = 1;
  Policy.tighten_cycles = 100;
  Policy.calm_collections = 100;
  cgc_sentinel_configure(GC, &Policy);
  EXPECT_EQ(cgc_sentinel_get_stats(GC, &Stats), 1);
  EXPECT_EQ(Stats.current_level, 0u);

  static int Incidents;
  static unsigned LastLevel;
  Incidents = 0;
  LastLevel = 0;
  cgc_set_incident_callback(
      GC,
      [](int Cause, unsigned long long /*Collection*/, unsigned Level,
         unsigned long long Growth, void *) {
        if (Cause == CGC_INCIDENT_RETENTION_STORM && Growth > 0)
          ++Incidents;
        LastLevel = Level;
      },
      nullptr);

  // The storm workload from TestSentinel, through the C surface.
  static void *Pins[64];
  std::memset(Pins, 0, sizeof(Pins));
  cgc_add_roots(GC, Pins, Pins + 64);
  for (unsigned I = 0; I != 24 && Incidents == 0; ++I) {
    Pins[I] = cgc_malloc(GC, 32 << 10);
    cgc_gcollect(GC);
  }

  ASSERT_EQ(cgc_sentinel_get_stats(GC, &Stats), 1);
  EXPECT_GE(Stats.storms_detected, 1ull);
  EXPECT_EQ(Stats.stack_clear_forces, 1ull);
  EXPECT_EQ(Stats.blacklist_refreshes, 1ull);
  EXPECT_EQ(Stats.interior_tightenings, 1ull);
  EXPECT_EQ(Stats.incidents_raised, 1ull);
  EXPECT_EQ(Stats.current_level, 4u);
  EXPECT_EQ(Incidents, 1);
  EXPECT_EQ(LastLevel, 4u);

  // Clearing the callback must deregister it; further collections run.
  cgc_set_incident_callback(GC, nullptr, nullptr);
  cgc_gcollect(GC);
  cgc_destroy(GC);
}

TEST(CApi, CrashReportDumpOnDemand) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  cgc_gcollect(GC);

  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  cgc_dump_crash_report(Fds[1]);
  ::close(Fds[1]);
  std::string Report;
  char Buffer[4096];
  ssize_t N;
  while ((N = ::read(Fds[0], Buffer, sizeof(Buffer))) > 0)
    Report.append(Buffer, static_cast<size_t>(N));
  ::close(Fds[0]);

  EXPECT_NE(Report.find("=== cgc crash report ==="), std::string::npos);
  EXPECT_NE(Report.find("collector #"), std::string::npos);
  EXPECT_NE(Report.find("collection-end"), std::string::npos);

  cgc_install_crash_reporter(); // Idempotent; must not disturb anything.
  cgc_destroy(GC);
}

TEST(CApi, DisplacementsUnderBaseOnly) {
  cgc_config Config = testConfig();
  Config.interior_policy = CGC_INTERIOR_BASE_ONLY;
  cgc_collector *GC = cgc_create(&Config);
  cgc_register_displacement(GC, 8);
  static char *TaggedRef;
  void *Obj = cgc_malloc(GC, 64);
  TaggedRef = static_cast<char *>(Obj) + 8; // Tagged pointer.
  cgc_add_roots(GC, &TaggedRef, &TaggedRef + 1);
  cgc_gcollect(GC);
  EXPECT_GE(cgc_live_bytes(GC), 64u);
  cgc_destroy(GC);
}

TEST(CApi, MutatorThreadRegistrationAndSafepoint) {
  cgc_config Config = testConfig();
  Config.mutator_threads = 4;
  cgc_collector *GC = cgc_create(&Config);
  // Unregistered threads: safepoint is a cheap no-op.
  cgc_safepoint(GC);

  std::vector<std::thread> Workers;
  std::atomic<unsigned> Succeeded{0};
  for (int T = 0; T != 3; ++T)
    Workers.emplace_back([&] {
      if (!cgc_register_thread(GC))
        return;
      Succeeded.fetch_add(1);
      static thread_local void *Keep[8];
      for (int I = 0; I != 200; ++I) {
        Keep[I % 8] = cgc_malloc(GC, 48);
        cgc_safepoint(GC);
      }
      (void)Keep;
      cgc_unregister_thread(GC);
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Succeeded.load(), 3u);
  cgc_gcollect(GC); // No registered threads left; must not hang.
  cgc_destroy(GC);
}
