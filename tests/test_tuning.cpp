#include "tuning/kernel_tuner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

namespace gsph::tuning {
namespace {

gpusim::KernelWork compute_kernel()
{
    gpusim::KernelWork w;
    w.name = "compute";
    w.flops = 2e11;
    w.dram_bytes = 3e10; // near-ridge on the A100 model
    w.flop_efficiency = 0.6;
    w.gather_fraction = 0.7;
    w.threads = 90'000'000;
    return w;
}

gpusim::KernelWork memory_kernel()
{
    gpusim::KernelWork w = compute_kernel();
    w.name = "memory";
    w.flops = 5e9;
    w.dram_bytes = 8e10;
    return w;
}

const sim::WorkloadTrace& turb_trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 91.125e6; // 450^3: the paper's sweep size
        spec.n_steps = 3;
        spec.real_nside = 8;
        return sim::record_trace(spec);
    }();
    return t;
}

TEST(KernelTuner, SweepsAllRequestedFrequencies)
{
    KernelTuner tuner(gpusim::a100_pcie_40g(), 3);
    const auto w = compute_kernel();
    const std::vector<double> band = {1005.0, 1200.0, 1410.0};
    const auto result = tuner.tune_kernel(
        "k", [&w](gpusim::GpuDevice& dev) { dev.execute(w); }, w.threads,
        {{"core_freq_mhz", band}});
    ASSERT_EQ(result.configs.size(), band.size());
    for (std::size_t i = 0; i < result.configs.size(); ++i) {
        const auto& c = result.configs[i];
        EXPECT_EQ(c.params.at("core_freq_mhz"), band[i]) << "config " << i;
        EXPECT_GT(c.time_s, 0.0);
        EXPECT_GT(c.energy_j, 0.0);
        EXPECT_NEAR(c.edp, c.time_s * c.energy_j, 1e-12);
    }
}

TEST(KernelTuner, RejectsUnknownParameterNamingTheKey)
{
    // Only "core_freq_mhz" is applied to the device; an unrecognized key
    // used to multiply the search space with identically-priced duplicates
    // (e.g. a "block_size" list tripled every sweep silently).
    KernelTuner tuner(gpusim::a100_pcie_40g(), 1);
    const auto w = compute_kernel();
    try {
        tuner.tune_kernel(
            "k", [&w](gpusim::GpuDevice& dev) { dev.execute(w); }, w.threads,
            {{"core_freq_mhz", {1005.0, 1410.0}}, {"block_size", {128.0, 256.0, 512.0}}});
        FAIL() << "expected std::invalid_argument";
    }
    catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("block_size"), std::string::npos)
            << e.what();
    }
}

TEST(KernelTuner, BestByObjective)
{
    KernelTuner tuner(gpusim::a100_pcie_40g(), 3);
    const auto w = compute_kernel();
    const auto result = tuner.tune_kernel(
        "k", [&w](gpusim::GpuDevice& dev) { dev.execute(w); }, w.threads,
        {{"core_freq_mhz", {1005.0, 1110.0, 1215.0, 1320.0, 1410.0}}});
    // Compute-bound: fastest at max clock, cheapest at min clock.
    EXPECT_DOUBLE_EQ(result.best(Objective::kTime).params.at("core_freq_mhz"), 1410.0);
    EXPECT_DOUBLE_EQ(result.best(Objective::kEnergy).params.at("core_freq_mhz"), 1005.0);
}

TEST(KernelTuner, MemoryBoundPrefersLowClockEdp)
{
    KernelTuner tuner(gpusim::a100_pcie_40g(), 3);
    const auto w = memory_kernel();
    const auto result = tuner.tune_kernel(
        "mem", [&w](gpusim::GpuDevice& dev) { dev.execute(w); }, w.threads,
        {{"core_freq_mhz", {1005.0, 1110.0, 1215.0, 1320.0, 1410.0}}});
    EXPECT_DOUBLE_EQ(result.best(Objective::kEdp).params.at("core_freq_mhz"), 1005.0);
}

TEST(KernelTuner, ComputeBoundPrefersHighClockEdp)
{
    KernelTuner tuner(gpusim::a100_pcie_40g(), 3);
    const auto w = compute_kernel();
    const auto result = tuner.tune_kernel(
        "cmp", [&w](gpusim::GpuDevice& dev) { dev.execute(w); }, w.threads,
        {{"core_freq_mhz", {1005.0, 1110.0, 1215.0, 1320.0, 1410.0}}});
    EXPECT_GE(result.best(Objective::kEdp).params.at("core_freq_mhz"), 1215.0);
}

TEST(KernelTuner, InvalidInputsThrow)
{
    KernelTuner tuner(gpusim::a100_pcie_40g());
    EXPECT_THROW(tuner.tune_kernel("k", nullptr, 1, {}), std::invalid_argument);
    EXPECT_THROW(tuner.tune_kernel(
                     "k", [](gpusim::GpuDevice&) {}, 1, {{"core_freq_mhz", {}}}),
                 std::invalid_argument);
    EXPECT_THROW(KernelTuner(gpusim::a100_pcie_40g(), 0), std::invalid_argument);
}

TEST(KernelTuner, EmptySweepBestThrows)
{
    TuneResult r;
    EXPECT_THROW(r.best(Objective::kEdp), std::logic_error);
}

TEST(PaperBand, SevenPointsWithinPaperRange)
{
    const auto band = paper_frequency_band(gpusim::a100_sxm4_80g());
    ASSERT_FALSE(band.empty());
    EXPECT_DOUBLE_EQ(band.front(), 1005.0);
    EXPECT_DOUBLE_EQ(band.back(), 1410.0);
    for (double f : band) {
        EXPECT_GE(f, 1005.0);
        EXPECT_LE(f, 1410.0);
    }
}

TEST(PaperBand, ScalesToAmdRange)
{
    const auto band = paper_frequency_band(gpusim::mi250x_gcd());
    EXPECT_NEAR(band.front() / 1700.0, 1005.0 / 1410.0, 0.02);
    EXPECT_DOUBLE_EQ(band.back(), 1700.0);
}

TEST(FunctionSweep, ProducesFig2Shape)
{
    const auto sweep = sweep_sph_functions(turb_trace(), gpusim::a100_pcie_40g());
    ASSERT_FALSE(sweep.empty());
    for (std::size_t i = 1; i < sweep.size(); ++i) {
        EXPECT_LT(static_cast<int>(sweep[i - 1].fn), static_cast<int>(sweep[i].fn))
            << "entry " << i << " out of function order";
    }

    double me_clock = 0.0, xmass_clock = 0.0;
    for (const auto& e : sweep) {
        EXPECT_GE(e.best_edp_mhz, 1005.0);
        EXPECT_LE(e.best_edp_mhz, 1410.0);
        if (e.fn == sph::SphFunction::kMomentumEnergy) me_clock = e.best_edp_mhz;
        if (e.fn == sph::SphFunction::kXMass) xmass_clock = e.best_edp_mhz;
    }
    // Fig. 2: compute-bound functions prefer higher clocks than light ones.
    EXPECT_GT(me_clock, xmass_clock);
    EXPECT_DOUBLE_EQ(xmass_clock, 1005.0);
    EXPECT_GE(me_clock, 1200.0);
}

TEST(FunctionSweep, TableFromSweepUsesBestEdp)
{
    const auto sweep = sweep_sph_functions(turb_trace(), gpusim::a100_pcie_40g());
    const auto table = table_from_sweep(sweep, 1410.0);
    for (const auto& e : sweep) {
        EXPECT_DOUBLE_EQ(table.get(e.fn), e.best_edp_mhz);
    }
    // Gravity absent from the turbulence trace: stays at the default.
    EXPECT_DOUBLE_EQ(table.get(sph::SphFunction::kGravity), 1410.0);
}

TEST(FunctionSweep, EmptyTraceThrows)
{
    sim::WorkloadTrace empty;
    EXPECT_THROW(sweep_sph_functions(empty, gpusim::a100_pcie_40g()),
                 std::invalid_argument);
}


TEST(KernelTuner, Ed2pWeighsTimeMoreThanEdp)
{
    KernelTuner tuner(gpusim::a100_pcie_40g(), 3);
    const auto w = compute_kernel();
    const auto result = tuner.tune_kernel(
        "k", [&w](gpusim::GpuDevice& dev) { dev.execute(w); }, w.threads,
        {{"core_freq_mhz", {1005.0, 1110.0, 1215.0, 1320.0, 1410.0}}});
    const double edp_clock = result.best(Objective::kEdp).params.at("core_freq_mhz");
    const double ed2p_clock = result.best(Objective::kEd2p).params.at("core_freq_mhz");
    EXPECT_GE(ed2p_clock, edp_clock); // ED2P never prefers a lower clock
}

} // namespace
} // namespace gsph::tuning

