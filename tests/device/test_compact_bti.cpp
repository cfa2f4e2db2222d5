// The compact BTI model must track the full trap-ensemble model closely
// enough for system-level use (the ablation bench quantifies this in
// detail; these tests pin the qualitative contract).
#include "device/compact_bti.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "device/bti_model.hpp"
#include "device/calibration.hpp"

namespace dh::device {
namespace {

std::vector<std::uint8_t> state_bytes(const CompactBti& m) {
  ckpt::Serializer s;
  m.save_state(s);
  return s.take();
}

TEST(CompactBti, FreshIsZero) {
  CompactBti m{};
  EXPECT_DOUBLE_EQ(m.delta_vth().value(), 0.0);
}

TEST(CompactBti, StressThenRecoverShape) {
  CompactBti m{};
  m.apply(paper_conditions::accelerated_stress(), hours(24.0));
  const double stressed = m.delta_vth().value();
  EXPECT_GT(stressed, 0.02);
  m.apply(paper_conditions::recovery_no4(), hours(6.0));
  const double recovered = (stressed - m.delta_vth().value()) / stressed;
  // Same ballpark as the full model's 72.7%.
  EXPECT_GT(recovered, 0.5);
  EXPECT_LT(recovered, 0.95);
}

TEST(CompactBti, RecoveryConditionOrdering) {
  const auto conditions = {paper_conditions::recovery_no1(),
                           paper_conditions::recovery_no2(),
                           paper_conditions::recovery_no3(),
                           paper_conditions::recovery_no4()};
  double prev_residual = 1e9;
  for (const auto& cond : conditions) {
    CompactBti m{};
    m.apply(paper_conditions::accelerated_stress(), hours(24.0));
    m.apply(cond, hours(6.0));
    EXPECT_LT(m.delta_vth().value(), prev_residual);
    prev_residual = m.delta_vth().value();
  }
}

TEST(CompactBti, BalancedCyclingStaysLow) {
  CompactBti m{};
  double peak = 0.0;
  for (int c = 0; c < 8; ++c) {
    m.apply(paper_conditions::accelerated_stress(), hours(1.0));
    peak = std::max(peak, m.delta_vth().value());
    m.apply(paper_conditions::recovery_no4(), hours(1.0));
  }
  EXPECT_LT(m.delta_vth().value(), 0.35 * peak);
}

TEST(CompactBti, BreakdownSumsToTotal) {
  CompactBti m{};
  m.apply(paper_conditions::accelerated_stress(), hours(12.0));
  const auto b = m.breakdown();
  EXPECT_NEAR(b.total().value(), m.delta_vth().value(), 1e-12);
}

TEST(CompactBti, ResetClears) {
  CompactBti m{};
  m.apply(paper_conditions::accelerated_stress(), hours(12.0));
  m.reset();
  EXPECT_DOUBLE_EQ(m.delta_vth().value(), 0.0);
}

TEST(CompactBti, TracksFullModelUnderNominalAging) {
  // One year at nominal conditions with daily recovery naps: compact and
  // full models should land within a factor-of-two band.
  CompactBti compact{};
  auto full = BtiModel::paper_calibrated();
  const BtiCondition run{Volts{0.9}, Celsius{60.0}};
  const BtiCondition nap{Volts{-0.3}, Celsius{60.0}};
  for (int d = 0; d < 60; ++d) {
    compact.apply(run, hours(22.0));
    compact.apply(nap, hours(2.0));
    full.apply(run, hours(22.0));
    full.apply(nap, hours(2.0));
  }
  const double c = compact.delta_vth().value();
  const double f = full.delta_vth().value();
  EXPECT_GT(c, 0.3 * f);
  EXPECT_LT(c, 3.0 * f);
}

TEST(CompactBti, MuchFasterThanFullModel) {
  // Smoke check of the design goal (no timing assertion, just step count):
  // 10k steps must run without issue.
  CompactBti m{};
  for (int i = 0; i < 10000; ++i) {
    m.apply(paper_conditions::accelerated_stress(), minutes(30.0));
  }
  EXPECT_GT(m.delta_vth().value(), 0.0);
}

TEST(CompactBti, NegativeDtThrows) {
  CompactBti m{};
  EXPECT_THROW(m.apply(paper_conditions::recovery_no1(), Seconds{-5.0}),
               Error);
}

TEST(CompactBti, RejectsNonFiniteOrOversizedDt) {
  // An infinite step used to leave a NaN shift, and a huge one overflowed
  // the int substep count (undefined behaviour) into one Euler step.
  CompactBti m{};
  m.apply(paper_conditions::accelerated_stress(), hours(2.0));
  const auto before = state_bytes(m);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double dt : {kInf, -kInf,
                          std::numeric_limits<double>::quiet_NaN(), 1e13}) {
    EXPECT_THROW(m.apply(paper_conditions::accelerated_stress(), Seconds{dt}),
                 Error)
        << dt;
    EXPECT_THROW(m.apply(paper_conditions::recovery_no4(), Seconds{dt}),
                 Error)
        << dt;
  }
  EXPECT_EQ(state_bytes(m), before);
  // The bound is the substep counter's range. Recovery is closed form, so
  // the longest accepted step is cheap to apply.
  const double max_substeps = std::numeric_limits<int>::max();
  EXPECT_NO_THROW(m.apply(paper_conditions::recovery_no4(),
                          Seconds{300.0 * max_substeps}));
  EXPECT_THROW(m.apply(paper_conditions::recovery_no4(),
                       Seconds{300.0 * (max_substeps + 1.0)}),
               Error);
}

TEST(CompactBti, BatchMatchesApplyBitForBit) {
  // More stressed devices than advance together, each with its own bias,
  // temperature, step lengths and substep counts, listed out of address
  // order. Most jobs carry a relax tail (passive rest or active
  // recovery), some behind a zero-length first interval.
  constexpr std::size_t kDevices = 45;
  std::vector<CompactBti> batched(kDevices);
  std::vector<CompactBti> single(kDevices);
  const BtiCondition recover{Volts{-0.3}, Celsius{70.0}};
  const BtiCondition rest{Volts{0.0}, Celsius{45.0}};
  std::vector<BtiJob> jobs;
  int stress_rest = 0;
  int stress_recover = 0;
  int empty_first = 0;
  int empty_tail = 0;
  for (int round = 0; round < 20; ++round) {
    jobs.clear();
    for (std::size_t k = 0; k < kDevices; ++k) {
      const std::size_t i = (k * 17 + static_cast<std::size_t>(round)) %
                            kDevices;  // 17 is coprime to 45
      const auto r = static_cast<std::size_t>(round);
      const Seconds first =
          (i + r) % 7 == 0
              ? Seconds{0.0}
              : minutes(static_cast<double>((i * 13 + r * 7) % 400));
      const BtiCondition stress{Volts{0.8 + 0.01 * static_cast<double>(i % 9)},
                                Celsius{60.0 + static_cast<double>(i)}};
      const BtiCondition& c = (i + r) % 5 == 0 ? recover : stress;
      const std::size_t tail_kind = (i + 2 * r) % 3;  // none, rest, recover
      const BtiCondition& tail = tail_kind == 1 ? rest : recover;
      const Seconds tail_dt =
          tail_kind == 0 ? Seconds{0.0}
                         : minutes(static_cast<double>(1 + (i * 11 + r * 3) %
                                                               200));
      jobs.push_back({&batched[i], c, first, tail, tail_dt});
      single[i].apply(c, first);
      single[i].apply(tail, tail_dt);
      const bool stressed = c.is_stress() && first.value() > 0.0;
      stress_rest += stressed && tail_kind == 1;
      stress_recover += stressed && tail_kind == 2;
      empty_first += first.value() == 0.0 && tail_dt.value() > 0.0;
      empty_tail += stressed && tail_dt.value() == 0.0;
    }
    CompactBti::apply_batch(jobs);
    for (std::size_t i = 0; i < kDevices; ++i) {
      ASSERT_EQ(state_bytes(batched[i]), state_bytes(single[i]))
          << "device " << i << " round " << round;
    }
  }
  EXPECT_GT(stress_rest, 0);
  EXPECT_GT(stress_recover, 0);
  EXPECT_GT(empty_first, 0);
  EXPECT_GT(empty_tail, 0);
  EXPECT_GT(batched[0].breakdown().locked.value(), 0.0);
}

TEST(CompactBti, BatchRejectsBadJobWithoutMutating) {
  std::array<CompactBti, 3> d;
  for (CompactBti& m : d) {
    m.apply(paper_conditions::accelerated_stress(), hours(2.0));
  }
  const auto stress = paper_conditions::accelerated_stress();
  const auto recover = paper_conditions::recovery_no4();
  const auto before = state_bytes(d[0]);
  const auto check_unchanged = [&] {
    for (const CompactBti& m : d) EXPECT_EQ(state_bytes(m), before);
  };
  // The bad job comes last, after good jobs on the other devices.
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const std::array<BtiJob, 3> jobs{{{&d[0], stress, hours(6.0)},
                                      {&d[1], recover, hours(6.0)},
                                      {&d[2], stress, Seconds{bad}}}};
    EXPECT_THROW(CompactBti::apply_batch(jobs), Error) << bad;
    check_unchanged();
  }
  // A bad relax tail: negative, NaN, past 300 s x INT_MAX, or stressing.
  for (const double bad :
       {-1.0, std::numeric_limits<double>::quiet_NaN(), 1e12}) {
    const std::array<BtiJob, 3> jobs{{{&d[0], stress, hours(6.0)},
                                      {&d[1], recover, hours(6.0)},
                                      {&d[2], stress, hours(6.0), recover,
                                       Seconds{bad}}}};
    EXPECT_THROW(CompactBti::apply_batch(jobs), Error) << bad;
    check_unchanged();
  }
  const std::array<BtiJob, 3> stress_tail{{{&d[0], stress, hours(6.0)},
                                           {&d[1], recover, hours(6.0)},
                                           {&d[2], recover, hours(6.0),
                                            stress, hours(1.0)}}};
  EXPECT_THROW(CompactBti::apply_batch(stress_tail), Error);
  check_unchanged();
  const std::array<BtiJob, 3> twice{{{&d[0], stress, hours(6.0)},
                                     {&d[1], stress, hours(6.0)},
                                     {&d[0], recover, hours(6.0)}}};
  EXPECT_THROW(CompactBti::apply_batch(twice), Error);
  check_unchanged();
  const std::array<BtiJob, 2> no_device{{{&d[0], stress, hours(6.0)},
                                         {nullptr, stress, hours(6.0)}}};
  EXPECT_THROW(CompactBti::apply_batch(no_device), Error);
  check_unchanged();
}

TEST(CompactBti, BatchRejectsBadTemperatureWithoutMutating) {
  // The temperature used to be checked only inside the job's own step, so
  // earlier jobs had already moved: a stressed device's recoverable pools
  // grew, or a recovering device healed, before the throw.
  std::array<CompactBti, 2> d;
  for (CompactBti& m : d) {
    m.apply(paper_conditions::accelerated_stress(), hours(2.0));
  }
  const auto before = state_bytes(d[0]);
  for (const BtiCondition& first : {paper_conditions::accelerated_stress(),
                                    paper_conditions::recovery_no4()}) {
    for (const double bad_c :
         {std::numeric_limits<double>::quiet_NaN(), -300.0, -273.15}) {
      const std::array<BtiJob, 2> jobs{
          {{&d[0], first, hours(6.0)},
           {&d[1], BtiCondition{Volts{1.2}, Celsius{bad_c}}, hours(6.0)}}};
      EXPECT_THROW(CompactBti::apply_batch(jobs), Error) << bad_c;
      for (const CompactBti& m : d) EXPECT_EQ(state_bytes(m), before) << bad_c;
      // The same temperature on a relax tail, even an empty one.
      for (const double tail_s : {0.0, 3600.0}) {
        const std::array<BtiJob, 2> tail_jobs{
            {{&d[0], first, hours(6.0)},
             {&d[1], paper_conditions::accelerated_stress(), hours(6.0),
              BtiCondition{Volts{0.0}, Celsius{bad_c}}, Seconds{tail_s}}}};
        EXPECT_THROW(CompactBti::apply_batch(tail_jobs), Error) << bad_c;
        for (const CompactBti& m : d) {
          EXPECT_EQ(state_bytes(m), before) << bad_c;
        }
      }
    }
  }
  // A single device rejects it too, even for an empty interval.
  EXPECT_THROW(d[0].apply(BtiCondition{Volts{1.2}, Celsius{-300.0}},
                          Seconds{0.0}),
               Error);
  EXPECT_EQ(state_bytes(d[0]), before);
}

TEST(CompactBti, RejectsNonFiniteBias) {
  // A NaN or +inf bias used to return with a NaN shift, and -inf (a
  // recovery condition) wiped the shift to zero.
  CompactBti m{};
  m.apply(paper_conditions::accelerated_stress(), hours(1.0));
  const auto before = state_bytes(m);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    const BtiCondition bad{Volts{v}, Celsius{110.0}};
    EXPECT_THROW(m.apply(bad, hours(1.0)), Error) << v;
    EXPECT_THROW(m.apply(bad, Seconds{0.0}), Error) << v;
    EXPECT_EQ(state_bytes(m), before) << v;
  }
}

TEST(CompactBti, BatchRejectsNonFiniteBiasWithoutMutating) {
  // The bad job comes last, after a stressed and a recovering device.
  std::array<CompactBti, 3> d;
  for (CompactBti& m : d) {
    m.apply(paper_conditions::accelerated_stress(), hours(1.0));
  }
  const auto before = state_bytes(d[0]);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    const std::array<BtiJob, 3> jobs{
        {{&d[0], paper_conditions::accelerated_stress(), hours(6.0)},
         {&d[1], paper_conditions::recovery_no4(), hours(6.0)},
         {&d[2], BtiCondition{Volts{v}, Celsius{110.0}}, hours(6.0)}}};
    EXPECT_THROW(CompactBti::apply_batch(jobs), Error) << v;
    for (const CompactBti& m : d) EXPECT_EQ(state_bytes(m), before) << v;
    // The same bias on a relax tail.
    const std::array<BtiJob, 3> tail_jobs{
        {{&d[0], paper_conditions::accelerated_stress(), hours(6.0)},
         {&d[1], paper_conditions::recovery_no4(), hours(6.0)},
         {&d[2], paper_conditions::accelerated_stress(), hours(6.0),
          BtiCondition{Volts{v}, Celsius{110.0}}, hours(1.0)}}};
    EXPECT_THROW(CompactBti::apply_batch(tail_jobs), Error) << v;
    for (const CompactBti& m : d) EXPECT_EQ(state_bytes(m), before) << v;
  }
}

TEST(CompactBti, BatchOfDtZeroIsNoOp) {
  std::array<CompactBti, 2> d;
  for (CompactBti& m : d) {
    m.apply(paper_conditions::accelerated_stress(), hours(2.0));
  }
  const auto before = state_bytes(d[0]);
  CompactBti::apply_batch({});
  const std::array<BtiJob, 2> jobs{
      {{&d[0], paper_conditions::accelerated_stress(), Seconds{0.0}},
       {&d[1], paper_conditions::recovery_no4(), Seconds{0.0}}}};
  CompactBti::apply_batch(jobs);
  for (const CompactBti& m : d) EXPECT_EQ(state_bytes(m), before);
}

}  // namespace
}  // namespace dh::device
