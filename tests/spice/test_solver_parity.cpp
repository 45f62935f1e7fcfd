// Bit-exactness harness for the solver fast path (docs/solver.md): every
// engine must produce byte-identical doubles under RFMIX_SOLVER=classic
// (analyze every factorization) and RFMIX_SOLVER=reuse (analyze once,
// refactor per step, bypass unchanged devices), at any thread count. The
// comparisons here are memcmp over the raw solution vectors — not
// EXPECT_DOUBLE_EQ — because the reuse path is only trustworthy if it
// replays the exact arithmetic of the classic path, signed zeros included.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/circuits.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/ac.hpp"
#include "spice/dcsweep.hpp"
#include "spice/noise.hpp"
#include "spice/op.hpp"
#include "spice/pss.hpp"
#include "spice/solver.hpp"
#include "spice/tran.hpp"

namespace rfmix::spice {
namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

core::MixerConfig mixer_config(core::MixerMode mode) {
  core::MixerConfig cfg;
  cfg.mode = mode;
  return cfg;
}

// Each run builds a fresh mixer: devices carry transient companion state,
// so sharing a circuit between runs would make later runs depend on
// earlier ones instead of on the solver mode under test.

std::vector<double> run_op(SolverMode mode, int threads, core::MixerMode mm) {
  ScopedSolverMode scoped(mode);
  runtime::ScopedPool pool(threads);
  auto mixer = core::build_transistor_mixer(mixer_config(mm));
  return dc_operating_point(mixer->circuit).raw();
}

std::vector<double> run_tran(SolverMode mode, int threads, core::MixerMode mm) {
  ScopedSolverMode scoped(mode);
  runtime::ScopedPool pool(threads);
  const core::MixerConfig cfg = mixer_config(mm);
  auto mixer = core::build_transistor_mixer(cfg);
  core::set_rf_stimulus(*mixer, {{2.45e9}, 5e-3});
  const double dt = 1.0 / (cfg.f_lo_hz * 16);
  const TranResult res = transient(mixer->circuit, 24 * dt, dt,
                                   {{mixer->if_p, mixer->if_m, "if"}});
  std::vector<double> bits = res.final_state.raw();
  for (const auto& w : res.waveforms) bits.insert(bits.end(), w.begin(), w.end());
  return bits;
}

std::vector<double> run_pss(SolverMode mode, int threads, core::MixerMode mm) {
  ScopedSolverMode scoped(mode);
  runtime::ScopedPool pool(threads);
  const core::MixerConfig cfg = mixer_config(mm);
  auto mixer = core::build_transistor_mixer(cfg);
  PssOptions opts;
  opts.samples_per_period = 16;
  opts.max_periods = 2;  // parity cares about the orbit bits, not convergence
  opts.min_periods = 2;
  const PssResult res = periodic_steady_state(mixer->circuit, 1.0 / cfg.f_lo_hz, opts);
  std::vector<double> bits;
  for (const auto& s : res.samples)
    bits.insert(bits.end(), s.raw().begin(), s.raw().end());
  return bits;
}

std::vector<double> run_dcsweep(SolverMode mode, int threads, core::MixerMode mm) {
  ScopedSolverMode scoped(mode);
  runtime::ScopedPool pool(threads);
  const core::MixerConfig cfg = mixer_config(mm);
  // Factory overload: chunks solve on pool lanes, so an 8-thread run
  // genuinely exercises concurrent SolverSessions. The aliasing shared_ptr
  // keeps each chunk's whole mixer alive through its Circuit handle.
  const DcSweepResult res = dc_sweep(
      [&] {
        std::shared_ptr<core::TransistorMixer> m = core::build_transistor_mixer(cfg);
        DcSweepInstance inst;
        inst.circuit = std::shared_ptr<Circuit>(m, &m->circuit);
        inst.source = m->vdd;
        return inst;
      },
      1.1, 1.3, 17);
  std::vector<double> bits = res.values;
  for (const auto& s : res.solutions)
    bits.insert(bits.end(), s.raw().begin(), s.raw().end());
  return bits;
}

using Runner = std::vector<double> (*)(SolverMode, int, core::MixerMode);

void expect_parity(Runner run, core::MixerMode mm, const char* what) {
  const std::vector<double> golden = run(SolverMode::kClassic, 1, mm);
  ASSERT_FALSE(golden.empty()) << what;
  EXPECT_TRUE(same_bits(golden, run(SolverMode::kReuse, 1, mm)))
      << what << ": reuse @1 thread deviates from classic";
  EXPECT_TRUE(same_bits(golden, run(SolverMode::kClassic, 8, mm)))
      << what << ": classic @8 threads deviates from classic @1";
  EXPECT_TRUE(same_bits(golden, run(SolverMode::kReuse, 8, mm)))
      << what << ": reuse @8 threads deviates from classic";
}

TEST(SolverParity, OperatingPointActive) {
  expect_parity(&run_op, core::MixerMode::kActive, "op/active");
}

TEST(SolverParity, OperatingPointPassive) {
  expect_parity(&run_op, core::MixerMode::kPassive, "op/passive");
}

TEST(SolverParity, TransientActive) {
  expect_parity(&run_tran, core::MixerMode::kActive, "tran/active");
}

TEST(SolverParity, TransientPassive) {
  expect_parity(&run_tran, core::MixerMode::kPassive, "tran/passive");
}

TEST(SolverParity, PeriodicSteadyStateActive) {
  expect_parity(&run_pss, core::MixerMode::kActive, "pss/active");
}

TEST(SolverParity, DcSweepActive) {
  expect_parity(&run_dcsweep, core::MixerMode::kActive, "dcsweep/active");
}

#if RFMIX_OBS_ENABLED

// The reuse mode must actually take its fast paths on these circuits —
// otherwise the parity checks above are vacuously comparing classic with
// itself.
TEST(SolverParity, ReuseModeActuallyRefactors) {
  ScopedSolverMode scoped(SolverMode::kReuse);
  const std::uint64_t refactor0 = obs::counter_value("spice.lu.refactor");
  const std::uint64_t eval0 = obs::counter_value("spice.dev.evaluated");
  const std::uint64_t analyze0 = obs::counter_value("spice.lu.analyze");
  (void)run_tran(SolverMode::kReuse, 1, core::MixerMode::kActive);
  EXPECT_GT(obs::counter_value("spice.lu.refactor"), refactor0)
      << "transient Newton never refactored";
  EXPECT_GT(obs::counter_value("spice.dev.evaluated"), eval0)
      << "batch evaluator never engaged";
  EXPECT_GT(obs::counter_value("spice.lu.analyze"), analyze0);
}

TEST(SolverParity, ClassicModeNeverRefactors) {
  ScopedSolverMode scoped(SolverMode::kClassic);
  const std::uint64_t refactor0 = obs::counter_value("spice.lu.refactor");
  const std::uint64_t fact0 = obs::counter_value("spice.lu.factorizations");
  (void)run_op(SolverMode::kClassic, 1, core::MixerMode::kActive);
  EXPECT_EQ(obs::counter_value("spice.lu.refactor"), refactor0);
  EXPECT_GT(obs::counter_value("spice.lu.factorizations"), fact0);
}

#endif  // RFMIX_OBS_ENABLED

// AC and noise sweep the same factor-once machinery; their complex-valued
// results ride the same bit-exactness contract.
TEST(SolverParity, AcAndNoiseSweepsMatchAcrossModes) {
  auto run_ac_noise = [](SolverMode mode, int threads) {
    ScopedSolverMode scoped(mode);
    runtime::ScopedPool pool(threads);
    auto mixer = core::build_transistor_mixer(mixer_config(core::MixerMode::kActive));
    const Solution op = dc_operating_point(mixer->circuit);
    const std::vector<double> freqs = lin_space(1e6, 100e6, 12);
    const AcResult ac = ac_sweep(mixer->circuit, op, freqs);
    const NoiseResult noise =
        noise_analysis(mixer->circuit, op, mixer->if_p, mixer->if_m, freqs);
    std::vector<double> bits;
    for (const auto& sol : ac.solutions)
      for (const auto& v : sol) {
        bits.push_back(v.real());
        bits.push_back(v.imag());
      }
    for (const auto& p : noise.points) bits.push_back(p.total_output_psd_v2_hz);
    return bits;
  };
  const auto golden = run_ac_noise(SolverMode::kClassic, 1);
  ASSERT_FALSE(golden.empty());
  EXPECT_TRUE(same_bits(golden, run_ac_noise(SolverMode::kReuse, 1)));
  EXPECT_TRUE(same_bits(golden, run_ac_noise(SolverMode::kClassic, 8)));
  EXPECT_TRUE(same_bits(golden, run_ac_noise(SolverMode::kReuse, 8)));
}

}  // namespace
}  // namespace rfmix::spice
