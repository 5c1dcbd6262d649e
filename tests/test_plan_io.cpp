// Tests for plan serialization (offline preprocessing, paper §IV-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "support/checksum.hpp"
#include "gen/stencil.hpp"
#include "kernels/mpk_baseline.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

void expect_plans_equivalent(MpkPlan& a, MpkPlan& b,
                             const CsrMatrix<double>& matrix, int k) {
  const index_t n = matrix.rows();
  const auto x = test::random_vector(n, 99);
  AlignedVector<double> ya(n), yb(n);
  a.power(x, k, ya);
  b.power(x, k, yb);
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(ya[i], yb[i]) << "row " << i;
}

TEST(PlanIo, RoundTripAbmcParallelPlan) {
  const auto a = gen::make_laplacian_3d(10, 10, 10);
  auto plan = MpkPlan::build(a);
  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);

  EXPECT_EQ(loaded.rows(), plan.rows());
  EXPECT_EQ(loaded.permutation(), plan.permutation());
  EXPECT_EQ(loaded.stats().num_colors, plan.stats().num_colors);
  EXPECT_EQ(loaded.split().lower, plan.split().lower);
  EXPECT_EQ(loaded.split().upper, plan.split().upper);
  expect_plans_equivalent(plan, loaded, a, 5);
}

TEST(PlanIo, RoundTripSerialPlan) {
  const auto a = test::random_matrix(120, 6.0, false, 3);
  PlanOptions opts;
  opts.reorder = false;
  opts.parallel = false;
  opts.variant = FbVariant::kSplit;
  auto plan = MpkPlan::build(a, opts);
  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);
  EXPECT_EQ(loaded.options().variant, FbVariant::kSplit);
  EXPECT_FALSE(loaded.options().parallel);
  expect_plans_equivalent(plan, loaded, a, 4);
}

// The sweeps skip the gather/scatter of x and y when the plan's
// permutation is the identity; that flag is recorded when the
// permutation is built or loaded, not rescanned per call.
TEST(PlanIo, LoadedPermutationRecordsWhetherItIsTheIdentity) {
  const auto a = test::random_matrix(140, 6.0, false, 0x1d);
  PlanOptions natural;
  natural.reorder = false;
  natural.scheduler = Scheduler::kLevels;
  for (const bool reorder : {false, true}) {
    SCOPED_TRACE(reorder ? "reordered" : "natural order");
    auto plan = MpkPlan::build(a, reorder ? PlanOptions{} : natural);
    std::stringstream buf;
    save_plan(plan, buf);
    auto loaded = load_plan(buf);
    EXPECT_EQ(loaded.permutation().is_identity(), !reorder);
    EXPECT_EQ(loaded.permutation(), plan.permutation());
    expect_plans_equivalent(plan, loaded, a, 3);
  }
}

TEST(PlanIo, RoundTripLevelScheduledPlan) {
  const auto a = test::random_matrix(200, 7.0, true, 5);
  PlanOptions opts;
  opts.reorder = false;
  opts.scheduler = Scheduler::kLevels;
  auto plan = MpkPlan::build(a, opts);
  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);
  EXPECT_EQ(loaded.stats().num_levels_forward,
            plan.stats().num_levels_forward);
  expect_plans_equivalent(plan, loaded, a, 6);
}

TEST(PlanIo, FileRoundTrip) {
  const auto a = gen::make_laplacian_2d(15, 15);
  auto plan = MpkPlan::build(a);
  const std::string path = ::testing::TempDir() + "/fbmpk_plan.bin";
  save_plan_file(plan, path);
  auto loaded = load_plan_file(path);
  expect_plans_equivalent(plan, loaded, a, 3);
}

TEST(PlanIo, RejectsGarbageAndTruncation) {
  std::stringstream garbage("this is not a plan");
  EXPECT_THROW(load_plan(garbage), Error);

  const auto a = gen::make_laplacian_2d(6, 6);
  auto plan = MpkPlan::build(a);
  std::stringstream buf;
  save_plan(plan, buf);
  const std::string full = buf.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_plan(truncated), Error);

  // Flip a byte inside the payload: the CRC32 makes every flip a hard,
  // typed error — silent acceptance is no longer an allowed outcome
  // (test_fault_injection sweeps all positions; this spot-checks one).
  std::string corrupt = full;
  corrupt[full.size() - 9] = static_cast<char>(
      static_cast<unsigned char>(corrupt[full.size() - 9]) ^ 0xff);
  std::stringstream cbuf(corrupt);
  try {
    load_plan(cbuf);
    FAIL() << "corrupted payload byte was silently accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPlan);
  }
  EXPECT_THROW(load_plan_file("/nonexistent/plan.bin"), Error);
}

TEST(PlanIo, RejectsOldFormatVersionWithTypedError) {
  // A v1 header (raw-POD era) must fail with kVersionMismatch, not be
  // misparsed as framed sections.
  std::string v1("FBMPKPLN", 8);
  const std::uint32_t version = 1, width = 4;
  v1.append(reinterpret_cast<const char*>(&version), 4);
  v1.append(reinterpret_cast<const char*>(&width), 4);
  v1.append(128, '\0');
  std::stringstream buf(v1);
  try {
    load_plan(buf);
    FAIL() << "v1 stream accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kVersionMismatch);
  }
}

TEST(PlanIo, ChecksumCoversWholePayload) {
  // Same build twice -> identical bytes (the format is deterministic),
  // and the serialized stream round-trips the sanitize options too.
  const auto a = gen::make_laplacian_2d(7, 7);
  PlanOptions opts;
  opts.sanitize.policy = RepairPolicy::kWarnOnly;
  opts.sanitize.check_diagonal = true;
  auto plan = MpkPlan::build(a, opts);
  std::stringstream b1, b2;
  save_plan(plan, b1);
  save_plan(plan, b2);
  EXPECT_EQ(b1.str(), b2.str());

  auto loaded = load_plan(b1);
  EXPECT_EQ(loaded.options().sanitize.policy, RepairPolicy::kWarnOnly);
  EXPECT_TRUE(loaded.options().sanitize.check_diagonal);
}

TEST(PlanIo, TryLoadReturnsExpectedInsteadOfThrowing) {
  const auto bad = try_load_plan_file("/nonexistent/plan.bin");
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.code(), ErrorCode::kIo);

  std::stringstream garbage("not a plan at all........");
  const auto corrupt = try_load_plan(garbage);
  ASSERT_FALSE(corrupt);
  EXPECT_EQ(corrupt.code(), ErrorCode::kCorruptPlan);

  const auto a = gen::make_laplacian_2d(6, 6);
  auto plan = MpkPlan::build(a);
  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = try_load_plan(buf);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded.value().rows(), 36);
}

// --- format v4: kernel options + PCKD packed-index section -----------------

TEST(PlanIo, RoundTripCompressedDispatchPlan) {
  const auto a = gen::make_laplacian_2d(20, 18);
  PlanOptions opts;
  opts.kernel_backend = KernelBackend::kGeneric;
  opts.index_compress = true;
  opts.prefetch_dist = 8;
  opts.autotune_oracle = false;  // non-default, must round-trip (v6)
  auto plan = MpkPlan::build(a, opts);
  ASSERT_GT(plan.stats().packed_index_bytes, 0u);

  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);

  EXPECT_EQ(loaded.options().kernel_backend, KernelBackend::kGeneric);
  EXPECT_TRUE(loaded.options().index_compress);
  EXPECT_EQ(loaded.options().prefetch_dist, 8);
  EXPECT_FALSE(loaded.options().autotune_oracle);
  EXPECT_EQ(loaded.resolved_backend(), KernelBackend::kGeneric);
  EXPECT_EQ(loaded.stats().packed_index_bytes,
            plan.stats().packed_index_bytes);
  EXPECT_EQ(loaded.packed_index().bytes_per_nnz(),
            plan.packed_index().bytes_per_nnz());
  expect_plans_equivalent(plan, loaded, a, 5);
}

TEST(PlanIo, RoundTripResolvesAutoBackendOnLoad) {
  const auto a = gen::make_laplacian_2d(9, 9);
  PlanOptions opts;
  opts.kernel_backend = KernelBackend::kAuto;
  auto plan = MpkPlan::build(a, opts);
  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);
  // The stored option stays kAuto; the executing backend re-resolves on
  // the loading machine (here: the same one).
  EXPECT_EQ(loaded.options().kernel_backend, KernelBackend::kAuto);
  EXPECT_EQ(loaded.resolved_backend(), plan.resolved_backend());
  expect_plans_equivalent(plan, loaded, a, 4);
}

namespace {
// Byte offsets of the fixed header before the CRC'd payload.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4;
constexpr std::size_t kCrcOffset = 8 + 4 + 4 + 8;

// Re-stamp the header CRC after tampering payload bytes, so the load
// failure exercises semantic validation rather than the checksum.
void fix_crc(std::string& stream) {
  const std::uint32_t crc = crc32(stream.data() + kHeaderBytes,
                                  stream.size() - kHeaderBytes);
  std::memcpy(stream.data() + kCrcOffset, &crc, sizeof(crc));
}
}  // namespace

TEST(PlanIo, TamperedPackedSectionFailsDecodeCompare) {
  const auto a = gen::make_laplacian_2d(16, 16);
  PlanOptions opts;
  opts.index_compress = true;
  auto plan = MpkPlan::build(a, opts);
  std::stringstream buf;
  save_plan(plan, buf);
  std::string stream = buf.str();

  // Locate the PCKD frame by its tag bytes (u32 little-endian -> the
  // byte string "DKCP"; VALP/TUNE follow it since v5 so it is no
  // longer last). Its final vector (upper.col32) is empty on this
  // banded matrix, so the byte 9 from the frame's end is the last u16
  // of upper.col16 — flip it and re-stamp the CRC. The framing and
  // checksum now pass; only the decode-compare can catch it.
  ASSERT_GT(stream.size(), 32u);
  const std::string tag = {'D', 'K', 'C', 'P'};
  const std::size_t pckd = stream.rfind(tag);
  ASSERT_NE(pckd, std::string::npos);
  std::uint64_t len = 0;
  std::memcpy(&len, stream.data() + pckd + 4, sizeof(len));
  const std::size_t pckd_end = pckd + 12 + static_cast<std::size_t>(len);
  ASSERT_LE(pckd_end, stream.size());
  stream[pckd_end - 9] = static_cast<char>(
      static_cast<unsigned char>(stream[pckd_end - 9]) ^ 0x01);
  fix_crc(stream);

  std::stringstream tampered(stream);
  try {
    load_plan(tampered);
    FAIL() << "tampered packed index was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPlan);
  }
}

TEST(PlanIo, PackedPayloadWithCompressOffIsCorrupt) {
  // A plan claiming index_compress=off must not smuggle in a packed
  // sidecar. Craft one by flipping the OPTS boolean of a compressed
  // plan's stream: the first payload byte that differs between the
  // compressed and uncompressed builds is exactly that flag.
  const auto a = gen::make_laplacian_2d(12, 12);
  PlanOptions on, off;
  on.index_compress = true;
  off.index_compress = false;
  auto plan_on = MpkPlan::build(a, on);
  auto plan_off = MpkPlan::build(a, off);
  std::stringstream bon, boff;
  save_plan(plan_on, bon);
  save_plan(plan_off, boff);
  std::string s_on = bon.str();
  const std::string s_off = boff.str();

  std::size_t flag = std::string::npos;
  for (std::size_t i = kHeaderBytes;
       i < std::min(s_on.size(), s_off.size()); ++i) {
    if (s_on[i] != s_off[i]) {
      flag = i;
      break;
    }
  }
  ASSERT_NE(flag, std::string::npos);
  ASSERT_EQ(s_on[flag], 1);  // the serialized boolean
  s_on[flag] = 0;
  fix_crc(s_on);

  std::stringstream tampered(s_on);
  try {
    load_plan(tampered);
    FAIL() << "packed payload with index_compress=off was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPlan);
  }
}

// ---------------------------------------------------------------------------
// Plan format v5: value sidecars (VALP) and the tuned config (TUNE).
// ---------------------------------------------------------------------------

TEST(PlanIo, RoundTripMixedPrecisionPlanBitwise) {
  const auto a = gen::make_laplacian_2d(14, 14);
  for (const ValuePrecision p :
       {ValuePrecision::kFp32, ValuePrecision::kSplit}) {
    PlanOptions opts;
    opts.index_compress = true;
    opts.value_precision = p;
    auto plan = MpkPlan::build(a, opts);
    ASSERT_GT(plan.stats().packed_value_bytes, 0u);

    std::stringstream buf;
    save_plan(plan, buf);
    auto loaded = load_plan(buf);
    EXPECT_EQ(loaded.options().value_precision, p);
    EXPECT_EQ(loaded.packed_values().precision, p);
    EXPECT_EQ(loaded.stats().packed_value_bytes,
              plan.stats().packed_value_bytes);
    EXPECT_EQ(loaded.packed_values().lossless(),
              plan.packed_values().lossless());
    expect_plans_equivalent(plan, loaded, a, 5);
  }
}

TEST(PlanIo, TamperedValueSectionFailsDecodeCompare) {
  const auto a = gen::make_laplacian_2d(16, 16);
  PlanOptions opts;
  opts.value_precision = ValuePrecision::kSplit;
  auto plan = MpkPlan::build(a, opts);
  std::stringstream buf;
  save_plan(plan, buf);
  std::string stream = buf.str();

  // Locate the VALP frame ('VALP' as a little-endian u32 -> the byte
  // string "PLAV"). Its layout: u32 precision, then the lower
  // triangle's raw store — u8 precision, u8 lossless, u64 count,
  // empty f32 vec (u64 size 0), hi vec (u64 size + data). Flip the
  // first byte of lower.hi and re-stamp the CRC: framing and checksum
  // pass, only the decode-compare against the fp64 split can catch it.
  const std::string tag = {'P', 'L', 'A', 'V'};
  const std::size_t valp = stream.rfind(tag);
  ASSERT_NE(valp, std::string::npos);
  const std::size_t hi0 = valp + 12 + 4 + 1 + 1 + 8 + 8 + 8;
  ASSERT_LT(hi0, stream.size());
  stream[hi0] = static_cast<char>(
      static_cast<unsigned char>(stream[hi0]) ^ 0x01);
  fix_crc(stream);

  std::stringstream tampered(stream);
  try {
    load_plan(tampered);
    FAIL() << "tampered value sidecar was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPlan);
  }
}

TEST(PlanIo, ValueSidecarWithFp64PrecisionIsCorrupt) {
  // A plan claiming fp64 must not smuggle in value sidecars: flip the
  // OPTS precision word of a split plan's stream to fp64 and re-stamp
  // the CRC — the require-empty check must fire.
  const auto a = gen::make_laplacian_2d(12, 12);
  PlanOptions split_opts, plain_opts;
  split_opts.value_precision = ValuePrecision::kSplit;
  auto plan_split = MpkPlan::build(a, split_opts);
  auto plan_plain = MpkPlan::build(a, plain_opts);
  std::stringstream bs, bp;
  save_plan(plan_split, bs);
  save_plan(plan_plain, bp);
  std::string s_split = bs.str();
  const std::string s_plain = bp.str();

  // The first differing payload byte is the serialized precision enum.
  std::size_t pos = std::string::npos;
  for (std::size_t i = kHeaderBytes;
       i < std::min(s_split.size(), s_plain.size()); ++i) {
    if (s_split[i] != s_plain[i]) {
      pos = i;
      break;
    }
  }
  ASSERT_NE(pos, std::string::npos);
  ASSERT_EQ(s_split[pos], 2);  // ValuePrecision::kSplit as u32 LSB
  s_split[pos] = 0;            // claim fp64
  fix_crc(s_split);

  std::stringstream tampered(s_split);
  try {
    load_plan(tampered);
    FAIL() << "value sidecar with fp64 precision was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPlan);
  }
}

TEST(PlanIo, TamperedTunedSectionIsRejected) {
  const auto a = gen::make_laplacian_2d(10, 10);
  auto plan = MpkPlan::build(a);
  TunedConfig cfg;
  cfg.valid = true;
  cfg.backend = KernelBackend::kScalar;
  cfg.tuned_threads = 4;
  cfg.best_seconds = 1e-3;
  plan.set_tuned_config(cfg);
  std::stringstream buf;
  save_plan(plan, buf);
  std::string stream = buf.str();

  // 'TUNE' little-endian -> "ENUT"; after tag+length comes the valid
  // bool (u8) then the backend enum (u32). Stomp the enum out of range
  // and re-stamp the CRC.
  const std::string tag = {'E', 'N', 'U', 'T'};
  const std::size_t tune = stream.rfind(tag);
  ASSERT_NE(tune, std::string::npos);
  stream[tune + 12 + 1] = static_cast<char>(0xFF);
  fix_crc(stream);

  std::stringstream tampered(stream);
  try {
    load_plan(tampered);
    FAIL() << "out-of-range tuned backend was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPlan);
  }
}

TEST(PlanIo, TunedConfigRoundTripsAndRevalidatesStaleness) {
  const auto a = gen::make_laplacian_2d(12, 12);
  const auto threads = static_cast<index_t>(max_threads());

  // A config tuned on "this machine": survives the round trip, fresh.
  auto plan = MpkPlan::build(a);
  TunedConfig cfg;
  cfg.valid = true;
  cfg.backend = KernelBackend::kScalar;
  cfg.index_compress = true;
  cfg.value_precision = ValuePrecision::kFp32;
  cfg.tuned_threads = threads;
  cfg.best_seconds = 2.5e-4;
  cfg.oracle_used = true;
  cfg.oracle_predicted_bytes = 3.25e8;
  cfg.candidates_scored = 9;
  cfg.candidates_timed = 4;
  cfg.oracle_rank_of_winner = 2;
  plan.set_tuned_config(cfg);
  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);
  EXPECT_TRUE(loaded.tuned_config().valid);
  EXPECT_EQ(loaded.tuned_config().backend, cfg.backend);
  EXPECT_EQ(loaded.tuned_config().index_compress, cfg.index_compress);
  EXPECT_EQ(loaded.tuned_config().value_precision, cfg.value_precision);
  EXPECT_EQ(loaded.tuned_config().tuned_threads, threads);
  EXPECT_EQ(loaded.tuned_config().best_seconds, cfg.best_seconds);
  EXPECT_FALSE(loaded.tuned_config().stale);
  // v6 oracle provenance survives the round trip.
  EXPECT_TRUE(loaded.tuned_config().oracle_used);
  EXPECT_EQ(loaded.tuned_config().oracle_predicted_bytes,
            cfg.oracle_predicted_bytes);
  EXPECT_EQ(loaded.tuned_config().candidates_scored, cfg.candidates_scored);
  EXPECT_EQ(loaded.tuned_config().candidates_timed, cfg.candidates_timed);
  EXPECT_EQ(loaded.tuned_config().oracle_rank_of_winner,
            cfg.oracle_rank_of_winner);

  // A config tuned at a different thread count: loads, flagged stale.
  cfg.tuned_threads = threads + 7;
  plan.set_tuned_config(cfg);
  std::stringstream buf2;
  save_plan(plan, buf2);
  auto stale = load_plan(buf2);
  EXPECT_TRUE(stale.tuned_config().valid);
  EXPECT_TRUE(stale.tuned_config().stale);

  // A never-tuned plan round-trips as never-tuned.
  auto fresh = MpkPlan::build(a);
  std::stringstream buf3;
  save_plan(fresh, buf3);
  auto untuned = load_plan(buf3);
  EXPECT_FALSE(untuned.tuned_config().valid);
  EXPECT_FALSE(untuned.tuned_config().stale);
}

// ---------------------------------------------------------------------------
// The stage schedule (STGS) of a level-scheduled plan and the scheduler
// provenance fields of TUNE.
// ---------------------------------------------------------------------------

TEST(PlanIo, RoundTripLevelEnginePlanWithSchedule) {
  const auto a = test::random_matrix(220, 7.0, false, 41);
  PlanOptions opts;
  opts.reorder = false;
  opts.scheduler = Scheduler::kLevels;
  opts.sweep.sync = SweepSync::kPointToPoint;
  auto plan = MpkPlan::build(a, opts);
  ASSERT_FALSE(plan.stage_schedule().empty());

  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);
  EXPECT_EQ(loaded.options().scheduler, Scheduler::kLevels);
  EXPECT_EQ(loaded.options().sweep.sync, SweepSync::kPointToPoint);
  ASSERT_FALSE(loaded.stage_schedule().empty());
  EXPECT_EQ(loaded.stage_schedule().num_threads,
            plan.stage_schedule().num_threads);
  EXPECT_EQ(loaded.stage_schedule().fwd.num_stages,
            plan.stage_schedule().fwd.num_stages);
  EXPECT_EQ(loaded.stage_schedule().fwd.ranges,
            plan.stage_schedule().fwd.ranges);
  EXPECT_EQ(loaded.stage_schedule().bwd.deps, plan.stage_schedule().bwd.deps);
  expect_plans_equivalent(plan, loaded, a, 5);
}

TEST(PlanIo, MismatchedThreadCountRebuildsLevelSchedule) {
  const auto a = test::random_matrix(200, 6.0, true, 43);
  const int dflt = max_threads();
  PlanOptions opts;
  opts.reorder = false;
  opts.scheduler = Scheduler::kLevels;
  opts.sweep.sync = SweepSync::kPointToPoint;
  // threads = 0: the schedule follows the runtime default. Build the
  // plan "on a 2-core box", load it "on a 3-core box".
  set_threads(2);
  auto plan = MpkPlan::build(a, opts);
  ASSERT_EQ(plan.stage_schedule().num_threads, 2);
  std::stringstream buf;
  save_plan(plan, buf);

  set_threads(3);
  auto loaded = load_plan(buf);
  set_threads(dflt);
  // The loader rebuilds the schedule for the runtime default.
  EXPECT_EQ(loaded.stage_schedule().num_threads, 3);
  EXPECT_EQ(loaded.stats().sweep_threads, 3);
  expect_plans_equivalent(plan, loaded, a, 5);
}

/// Offset of the STGS frame ('STGS' as a little-endian u32 -> the byte
/// string "SGTS") in a serialized plan.
std::size_t stages_frame(const std::string& stream) {
  return stream.rfind(std::string{'S', 'G', 'T', 'S'});
}

TEST(PlanIo, TamperedLevelScheduleFailsValidation) {
  const auto a = test::random_matrix(180, 7.0, false, 47);
  PlanOptions opts;
  opts.reorder = false;
  opts.scheduler = Scheduler::kLevels;
  opts.sweep.sync = SweepSync::kPointToPoint;
  auto plan = MpkPlan::build(a, opts);
  const auto& ss = plan.stage_schedule();
  ASSERT_FALSE(ss.empty());
  std::stringstream buf;
  save_plan(plan, buf);
  std::string stream = buf.str();

  // Flip the low bit of the first forward range's `begin`. The shape
  // checks still pass — the slot merely drops or repeats a row — so
  // only validate_stage_schedule can catch it.
  const std::size_t stgs = stages_frame(stream);
  ASSERT_NE(stgs, std::string::npos);
  const std::size_t first_begin =
      stgs + 12 + 4 /*num_threads*/ + 4 /*num_rows*/ + 4 /*fwd.num_stages*/ +
      (8 + 4 * ss.fwd.range_ptr.size()) + 8 /*ranges size*/;
  ASSERT_LT(first_begin, stream.size());
  stream[first_begin] = static_cast<char>(
      static_cast<unsigned char>(stream[first_begin]) ^ 0x01);
  fix_crc(stream);

  std::stringstream tampered(stream);
  try {
    load_plan(tampered);
    FAIL() << "tampered stage schedule was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPlan);
  }
}

TEST(PlanIo, TruncatedLevelSectionIsRejected) {
  const auto a = test::random_matrix(160, 6.0, true, 53);
  PlanOptions opts;
  opts.reorder = false;
  opts.scheduler = Scheduler::kLevels;
  opts.sweep.sync = SweepSync::kPointToPoint;
  auto plan = MpkPlan::build(a, opts);
  std::stringstream buf;
  save_plan(plan, buf);
  const std::string full = buf.str();
  const std::size_t stgs = stages_frame(full);
  ASSERT_NE(stgs, std::string::npos);

  // Cut the stream in the middle of the STGS payload.
  std::stringstream truncated(full.substr(0, stgs + 24));
  try {
    load_plan(truncated);
    FAIL() << "truncated stage section was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPlan);
  }
}

TEST(PlanIo, StageScheduleOnSerialPlanIsCorrupt) {
  // A stream whose STGS section is non-empty while the plan is serial
  // must be rejected: craft it by flipping the OPTS `parallel` flag of
  // a parallel plan (located by diffing against a serial build).
  const auto a = test::random_matrix(150, 6.0, true, 59);
  PlanOptions par;
  auto plan_par = MpkPlan::build(a, par);
  ASSERT_FALSE(plan_par.stage_schedule().empty());
  PlanOptions ser = par;
  ser.parallel = false;
  auto plan_ser = MpkPlan::build(a, ser);
  std::stringstream bp, bs;
  save_plan(plan_par, bp);
  save_plan(plan_ser, bs);
  std::string s_par = bp.str();
  const std::string s_ser = bs.str();

  // The first differing payload byte is the serialized parallel flag.
  std::size_t pos = std::string::npos;
  for (std::size_t i = kHeaderBytes;
       i < std::min(s_par.size(), s_ser.size()); ++i) {
    if (s_par[i] != s_ser[i]) {
      pos = i;
      break;
    }
  }
  ASSERT_NE(pos, std::string::npos);
  ASSERT_EQ(s_par[pos], 1);
  s_par[pos] = 0;  // claim serial; STGS payload stays
  fix_crc(s_par);

  std::stringstream tampered(s_par);
  try {
    load_plan(tampered);
    FAIL() << "stage schedule on a serial plan was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPlan);
  }
}

TEST(PlanIo, SchedulerProvenanceRoundTrips) {
  const auto a = gen::make_laplacian_2d(12, 12);
  auto plan = MpkPlan::build(a);
  TunedConfig cfg;
  cfg.valid = true;
  cfg.backend = KernelBackend::kScalar;
  cfg.tuned_threads = static_cast<index_t>(max_threads());
  cfg.best_seconds = 1e-3;
  cfg.scheduler = Scheduler::kLevels;
  cfg.scheduler_measured = true;
  cfg.scheduler_alt_seconds = 2e-3;
  plan.set_tuned_config(cfg);
  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);
  EXPECT_EQ(loaded.tuned_config().scheduler, Scheduler::kLevels);
  EXPECT_TRUE(loaded.tuned_config().scheduler_measured);
  EXPECT_EQ(loaded.tuned_config().scheduler_alt_seconds, 2e-3);
}

// ---------------------------------------------------------------------------
// Retired formats: plans are cache artifacts, so the committed v4 and v6
// fixtures (written by earlier builds) must fail typed rather than load,
// and their owner rebuilds them (PlanCache does so on any load failure —
// ServiceTest.RetiredFormatArtifactIsRebuilt).
// ---------------------------------------------------------------------------

TEST(PlanIo, RetiredFormatFixturesFailWithVersionMismatch) {
  for (const char* file : {"plan_v4.bin", "plan_v4_packed.bin",
                           "plan_v6.bin"}) {
    SCOPED_TRACE(file);
    const auto r = try_load_plan_file(std::string(FBMPK_TEST_GOLDEN_DIR) +
                                      "/" + file);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.code(), ErrorCode::kVersionMismatch);
  }
}

// The current-format fixture pins the plan CRC32: plan_v8.bin was
// written by an earlier build, so any change to checksum values (or to
// the v8 layout) makes it fail to load. A serial natural-order plan
// keeps the comparison independent of the reorderer and the host's
// thread count. Regenerate only with an intentional format bump:
//   FBMPK_REGEN_GOLDEN=1 ./fbmpk_tests --gtest_filter='PlanIo.V8Golden*'
TEST(PlanIo, V8GoldenPlanLoads) {
  const auto a = test::random_matrix(96, 7.0, false, 0x8f1a);
  PlanOptions opts;
  opts.reorder = false;
  opts.parallel = false;
  auto fresh = MpkPlan::build(a, opts);
  const std::string path =
      std::string(FBMPK_TEST_GOLDEN_DIR) + "/plan_v8.bin";
  if (std::getenv("FBMPK_REGEN_GOLDEN") != nullptr)
    save_plan_file(fresh, path);
  auto r = try_load_plan_file(path);
  ASSERT_TRUE(r) << r.error().what();
  expect_plans_equivalent(fresh, r.value(), a, 5);
}

TEST(PlanIo, LoadedPlanMatchesBaselineNumerics) {
  const auto a = test::random_matrix(150, 8.0, true, 7);
  auto plan = MpkPlan::build(a);
  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);

  const auto x = test::random_vector(150, 8);
  AlignedVector<double> y(150), ref(150);
  loaded.power(x, 5, y);
  MpkWorkspace<double> ws;
  mpk_power<double>(a, x, 5, ref, ws);
  test::expect_near_rel(y, ref, 1e-8);
}

}  // namespace
}  // namespace fbmpk
