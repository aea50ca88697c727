/// Tests for the power-capping extension: device throttling, the capped-clock
/// search against the step-by-step descent it replaced, the NVML power
/// management limit surface, and the policy-level behaviour.

#include "core/policy.hpp"
#include "gpusim/device.hpp"
#include "nvmlsim/nvml.hpp"
#include "sim/workload.hpp"
#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

namespace gsph {
namespace {

gpusim::KernelWork hot_kernel()
{
    gpusim::KernelWork w;
    w.name = "hot";
    w.flops = 2e11;
    w.dram_bytes = 2e10;
    w.flop_efficiency = 0.6;
    w.gather_fraction = 0.7;
    w.threads = 90'000'000;
    return w;
}

TEST(PowerCapDevice, ThrottlesClockToHonourLimit)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_power_limit_w(175.0);
    const auto r = dev.execute(hot_kernel());
    EXPECT_LT(r.mean_clock_mhz, 1410.0);
    EXPECT_LE(r.mean_power_w, 175.0 + 1.0);
}

TEST(PowerCapDevice, UncappedRunsAtAppClock)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    const auto r = dev.execute(hot_kernel());
    EXPECT_DOUBLE_EQ(r.mean_clock_mhz, 1410.0);
}

TEST(PowerCapDevice, GenerousLimitDoesNotThrottle)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_power_limit_w(dev.default_power_limit_w());
    const auto r = dev.execute(hot_kernel());
    EXPECT_DOUBLE_EQ(r.mean_clock_mhz, 1410.0);
}

TEST(PowerCapDevice, ColdKernelUnaffectedByModerateCap)
{
    // Memory-bound kernels draw less power: a cap that throttles the hot
    // kernel leaves them at full clock (the complementary-to-ManDyn shape).
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_power_limit_w(190.0);
    gpusim::KernelWork cold = hot_kernel();
    cold.flops = 2e9;
    cold.dram_bytes = 6e10;
    const auto r = dev.execute(cold);
    EXPECT_DOUBLE_EQ(r.mean_clock_mhz, 1410.0);
    const auto hot = dev.execute(hot_kernel());
    EXPECT_LT(hot.mean_clock_mhz, 1410.0);
}

TEST(PowerCapDevice, TightCapThrottlesDeep)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_power_limit_w(dev.spec().idle_w + 21.0); // barely above idle
    const auto r = dev.execute(hot_kernel());
    EXPECT_LT(r.mean_clock_mhz, 400.0); // deep-throttled
    EXPECT_LE(r.mean_power_w, dev.spec().idle_w + 22.0);
}

TEST(PowerCapDevice, WorksUnderGovernorToo)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_clock_policy(gpusim::ClockPolicy::kNativeDvfs);
    dev.set_power_limit_w(175.0);
    const auto r = dev.execute(hot_kernel());
    EXPECT_LE(r.mean_power_w, 175.0 * 1.02);
}

// ------------------------------------------------- the capped-clock search

/// The 15 MHz step-by-step descent that throttle_for_power replaced, kept
/// only here as the reference its bisection must reproduce bit for bit.
double linear_descent(const gpusim::GpuDeviceSpec& spec, const gpusim::PowerModel& model,
                      const gpusim::KernelWork& work, double requested_mhz,
                      double limit_w, double mem_scale, bool governor_managed)
{
    if (limit_w <= 0.0) return requested_mhz;
    double f = spec.quantize_clock(requested_mhz);
    while (f > spec.min_compute_mhz) {
        const gpusim::KernelTiming t = gpusim::price_kernel(spec, work, f, mem_scale);
        if (model.busy_power(t, f, governor_managed).total_w <= limit_w) break;
        f = spec.quantize_clock(f - spec.clock_step_mhz);
    }
    return f;
}

/// The four built-in specs plus A100 copies whose maximum clock is off the
/// 15 MHz grid: 1417 MHz quantizes down to 1410, 1420 MHz is reachable.
std::vector<gpusim::GpuDeviceSpec> search_specs()
{
    std::vector<gpusim::GpuDeviceSpec> specs = {gpusim::a100_sxm4_80g(),
                                                gpusim::a100_pcie_40g(),
                                                gpusim::mi250x_gcd(),
                                                gpusim::intel_max_1550()};
    for (const double max_mhz : {1417.0, 1420.0}) {
        gpusim::GpuDeviceSpec off_grid = gpusim::a100_sxm4_80g();
        off_grid.name += "-max" + std::to_string(static_cast<int>(max_mhz));
        off_grid.max_compute_mhz = max_mhz;
        specs.push_back(off_grid);
    }
    return specs;
}

/// Recorded per-function works of the three physics problems, scaled from
/// the recording to well past paper scale, plus degenerate works.
const std::vector<gpusim::KernelWork>& search_works()
{
    static const std::vector<gpusim::KernelWork> works = [] {
        std::vector<gpusim::KernelWork> out;
        for (const sim::WorkloadKind kind : {sim::WorkloadKind::kSubsonicTurbulence,
                                             sim::WorkloadKind::kEvrardCollapse,
                                             sim::WorkloadKind::kSedovBlast}) {
            sim::WorkloadSpec spec;
            spec.kind = kind;
            spec.particles_per_gpu = 1e6;
            spec.n_steps = 2;
            spec.real_nside = 8;
            const sim::WorkloadTrace trace = sim::record_trace(spec);
            for (const sim::StepRecord& step : trace.steps) {
                for (const sim::FunctionRecord& fr : step.functions) {
                    for (const double scale : {1.0, 1e2, 1e4, 1e5, 3e5, 2e6}) {
                        out.push_back(gpusim::scaled(fr.work, scale));
                    }
                }
            }
        }
        gpusim::KernelWork no_flops = hot_kernel();
        no_flops.flops = 0.0;
        gpusim::KernelWork no_bytes = hot_kernel();
        no_bytes.dram_bytes = 0.0;
        gpusim::KernelWork empty;
        empty.name = "empty";
        out.insert(out.end(), {hot_kernel(), no_flops, no_bytes, empty});
        return out;
    }();
    return works;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(PowerCapDevice, SearchMatchesLinearDescent)
{
    long compared = 0;
    long mismatches = 0;
    std::ostringstream first;
    for (const gpusim::GpuDeviceSpec& spec : search_specs()) {
        const gpusim::PowerModel model(spec);
        const double tdp = spec.idle_w + spec.sm_dynamic_w + spec.issue_w + spec.mem_dynamic_w;
        std::vector<double> limits = {-1.0, 0.0};
        for (int i = 0; i <= 14; ++i) {
            limits.push_back(0.5 * spec.idle_w + (1.2 * tdp - 0.5 * spec.idle_w) * i / 14.0);
        }
        const double lo = spec.min_compute_mhz;
        const double hi = spec.max_compute_mhz;
        const double mid = 0.5 * (lo + hi);
        const double requests[] = {lo - 40.0, lo, lo + 0.4 * spec.clock_step_mhz,
                                   mid + 0.3, mid + 0.5 * spec.clock_step_mhz,
                                   hi - 0.6 * spec.clock_step_mhz, hi, hi + 90.0};
        for (const gpusim::KernelWork& work : search_works()) {
            for (const bool governed : {false, true}) {
                // Limits equal to a grid clock's exact busy power probe the
                // "<=" boundary.
                std::vector<double> work_limits = limits;
                for (const double f : {lo + spec.clock_step_mhz, mid, hi}) {
                    const double g = spec.quantize_clock(f);
                    work_limits.push_back(
                        model.busy_power(gpusim::price_kernel(spec, work, g), g, governed)
                            .total_w);
                }
                for (const double mem_scale : {0.8, 1.0, 1.15}) {
                    for (const double limit : work_limits) {
                        for (const double requested : requests) {
                            const gpusim::ThrottledClock got = gpusim::throttle_for_power(
                                spec, model, work, requested, limit, mem_scale, governed);
                            const double want = linear_descent(spec, model, work, requested,
                                                               limit, mem_scale, governed);
                            const gpusim::KernelTiming t =
                                gpusim::price_kernel(spec, work, want, mem_scale);
                            ++compared;
                            if (bits(got.mhz) != bits(want) ||
                                bits(got.timing.total_s) != bits(t.total_s) ||
                                bits(got.timing.busy_s) != bits(t.busy_s) ||
                                bits(got.timing.utilization) != bits(t.utilization)) {
                                if (mismatches++ == 0) {
                                    first << spec.name << " work=" << work.name
                                          << " requested=" << requested << " limit=" << limit
                                          << " mem_scale=" << mem_scale
                                          << " governed=" << governed << ": got " << got.mhz
                                          << " MHz, descent " << want << " MHz";
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(compared, 1'000'000);
    EXPECT_EQ(mismatches, 0) << "first: " << first.str();
}

TEST(PowerCapDevice, BusyPowerRisesWithClock)
{
    // The invariant the bisection relies on: over each spec's clock grid,
    // busy power rises strictly with the clock for every work.
    for (const gpusim::GpuDeviceSpec& spec : search_specs()) {
        const gpusim::PowerModel model(spec);
        std::vector<double> grid;
        for (double f = spec.min_compute_mhz; grid.empty() || f > grid.back();
             f = spec.quantize_clock(f + spec.clock_step_mhz)) {
            grid.push_back(f);
        }
        ASSERT_GT(grid.size(), 10u) << spec.name;
        for (const gpusim::KernelWork& work : search_works()) {
            for (const bool governed : {false, true}) {
                for (const double mem_scale : {0.8, 1.0, 1.15}) {
                    double previous = -1.0;
                    for (const double f : grid) {
                        const double p =
                            model.busy_power(gpusim::price_kernel(spec, work, f, mem_scale),
                                             f, governed)
                                .total_w;
                        ASSERT_GT(p, previous) << spec.name << ' ' << work.name << " at "
                                               << f << " MHz, governed=" << governed;
                        previous = p;
                    }
                }
            }
        }
    }
}

TEST(PowerCapDevice, UncappedSearchReturnsRequestedClockUnquantized)
{
    const gpusim::GpuDeviceSpec spec = gpusim::a100_pcie_40g();
    const gpusim::PowerModel model(spec);
    for (const double limit : {0.0, -50.0}) {
        for (const double requested : {1001.3, 150.0, 1500.0}) {
            const gpusim::ThrottledClock c = gpusim::throttle_for_power(
                spec, model, hot_kernel(), requested, limit, 1.0, false);
            EXPECT_EQ(bits(c.mhz), bits(requested));
            EXPECT_EQ(bits(c.timing.total_s),
                      bits(gpusim::price_kernel(spec, hot_kernel(), requested).total_s));
        }
    }
}

TEST(PowerCapDevice, SearchReturnsMinimumClockWhenNothingFits)
{
    // Below idle nothing fits: the minimum clock comes back even though its
    // busy power is over the limit.
    const gpusim::GpuDeviceSpec spec = gpusim::a100_pcie_40g();
    const gpusim::PowerModel model(spec);
    const double limit = 0.5 * spec.idle_w;
    for (const bool governed : {false, true}) {
        const gpusim::ThrottledClock c = gpusim::throttle_for_power(
            spec, model, hot_kernel(), 1410.0, limit, 1.0, governed);
        EXPECT_EQ(bits(c.mhz), bits(spec.min_compute_mhz));
        EXPECT_GT(model.busy_power(c.timing, c.mhz, governed).total_w, limit);
    }
    gpusim::GpuDevice dev(spec);
    dev.set_power_limit_w(limit);
    EXPECT_EQ(dev.execute(hot_kernel()).mean_clock_mhz, spec.min_compute_mhz);
}

/// Appends the object representation of `value` to `bytes`.
template <typename T>
void append_bits(std::string& bytes, T value)
{
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    bytes.append(raw, sizeof(T));
}

TEST(PowerCapDevice, GoldenGovernedRunDigest)
{
    // FNV-1a/64 of a governed device's per-batch clocks, energies and
    // durations under three power limits, plus its final clock, energy and
    // transition count.  Every governor tick searches for the capped
    // clock, so this pins that path bit for bit.  Update it only for a
    // deliberate change of behaviour.
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_clock_policy(gpusim::ClockPolicy::kNativeDvfs);
    gpusim::KernelWork cold = hot_kernel();
    cold.flops = 2e9;
    cold.dram_bytes = 6e10;
    cold.launches = 40;
    std::string bytes;
    for (const double limit : {175.0, 120.0, dev.spec().idle_w + 21.0}) {
        dev.set_power_limit_w(limit);
        for (const gpusim::KernelWork& work : {hot_kernel(), cold, hot_kernel()}) {
            const auto r = dev.execute(work);
            append_bits(bytes, r.mean_clock_mhz);
            append_bits(bytes, r.energy_j);
            append_bits(bytes, r.end_s);
            dev.idle(0.03);
        }
    }
    append_bits(bytes, dev.current_clock_mhz());
    append_bits(bytes, dev.energy_j());
    append_bits(bytes, std::int64_t{dev.clock_transitions()});
    EXPECT_EQ(util::fnv1a64(bytes), 0xad380ab764fb201full)
        << "0x" << util::hex64(util::fnv1a64(bytes));
}

class PowerLimitNvml : public ::testing::Test {
protected:
    PowerLimitNvml() : dev_(gpusim::a100_pcie_40g()), binding_({&dev_}, true)
    {
        nvmlsim::nvmlInit();
        nvmlsim::nvmlDeviceGetHandleByIndex(0, &handle_);
    }
    ~PowerLimitNvml() override { nvmlsim::nvmlShutdown(); }

    gpusim::GpuDevice dev_;
    nvmlsim::ScopedNvmlBinding binding_;
    nvmlsim::nvmlDevice_t handle_ = nullptr;
};

TEST_F(PowerLimitNvml, DefaultLimitIsTdp)
{
    unsigned int mw = 0;
    ASSERT_EQ(nvmlsim::nvmlDeviceGetPowerManagementLimit(handle_, &mw),
              nvmlsim::NVML_SUCCESS);
    EXPECT_NEAR(static_cast<double>(mw) / 1000.0, dev_.default_power_limit_w(), 0.5);
}

TEST_F(PowerLimitNvml, SetAndGetRoundTrip)
{
    ASSERT_EQ(nvmlsim::nvmlDeviceSetPowerManagementLimit(handle_, 200000),
              nvmlsim::NVML_SUCCESS);
    unsigned int mw = 0;
    ASSERT_EQ(nvmlsim::nvmlDeviceGetPowerManagementLimit(handle_, &mw),
              nvmlsim::NVML_SUCCESS);
    EXPECT_EQ(mw, 200000u);
    EXPECT_DOUBLE_EQ(dev_.power_limit_w(), 200.0);
}

TEST_F(PowerLimitNvml, ConstraintsEnforced)
{
    unsigned int min_mw = 0, max_mw = 0;
    ASSERT_EQ(nvmlsim::nvmlDeviceGetPowerManagementLimitConstraints(handle_, &min_mw,
                                                                    &max_mw),
              nvmlsim::NVML_SUCCESS);
    EXPECT_LT(min_mw, max_mw);
    EXPECT_EQ(nvmlsim::nvmlDeviceSetPowerManagementLimit(handle_, min_mw - 1000),
              nvmlsim::NVML_ERROR_INVALID_ARGUMENT);
    EXPECT_EQ(nvmlsim::nvmlDeviceSetPowerManagementLimit(handle_, max_mw + 1000),
              nvmlsim::NVML_ERROR_INVALID_ARGUMENT);
}

TEST_F(PowerLimitNvml, PermissionGate)
{
    nvmlsim::set_user_clock_permission(false);
    EXPECT_EQ(nvmlsim::nvmlDeviceSetPowerManagementLimit(handle_, 200000),
              nvmlsim::NVML_ERROR_NO_PERMISSION);
    nvmlsim::set_user_clock_permission(true);
}

TEST(PowerCapPolicy, CapsEnergyAtTimeCost)
{
    sim::WorkloadSpec spec;
    spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
    spec.particles_per_gpu = 91.125e6;
    spec.n_steps = 3;
    spec.real_nside = 8;
    const auto trace = sim::record_trace(spec);
    sim::RunConfig cfg;
    cfg.n_ranks = 1;
    cfg.setup_s = 3.0;
    cfg.rank_jitter = 0.0;

    auto baseline = core::make_baseline_policy();
    const auto rb = core::run_with_policy(sim::mini_hpc(), trace, cfg, *baseline);
    auto capped = core::make_power_cap_policy(180.0);
    const auto rc = core::run_with_policy(sim::mini_hpc(), trace, cfg, *capped);

    EXPECT_LT(rc.gpu_energy_j, rb.gpu_energy_j);
    EXPECT_GT(rc.makespan_s(), rb.makespan_s());
    // The cap throttles the compute-heavy functions, not the light ones.
    EXPECT_LT(rc.fn(sph::SphFunction::kMomentumEnergy).mean_clock_mhz(), 1400.0);
    EXPECT_GT(rc.fn(sph::SphFunction::kXMass).mean_clock_mhz(), 1400.0);
}

TEST(PowerCapPolicy, NameAndValidation)
{
    EXPECT_EQ(core::make_power_cap_policy(225.0)->name(), "PowerCap-225W");
    EXPECT_THROW(core::make_power_cap_policy(0.0), std::invalid_argument);
}

} // namespace
} // namespace gsph
