#pragma once
/// \file functions.hpp
/// \brief The SPH-EXA time-stepping functions.
///
/// Each function (a) performs the real physics on the host particle arrays
/// and (b) returns a gpusim::KernelWork describing the operations a GPU
/// implementation of the same function would execute, with counts derived
/// from the actual loop trip counts (particles, neighbour pairs, tree
/// interactions).  The function set and names match the paper's figures:
/// DomainDecompAndSync, FindNeighbors, XMass, NormalizationGradh,
/// EquationOfState, IADVelocityDivCurl, AVswitches, MomentumEnergy, Gravity,
/// EnergyConservation, Timestep, UpdateQuantities, UpdateSmoothingLength.

#include "gpusim/kernel_work.hpp"
#include "sph/gravity.hpp"
#include "sph/kernel.hpp"
#include "sph/neighbors.hpp"
#include "sph/octree.hpp"
#include "sph/particles.hpp"

#include <functional>
#include <string>
#include <vector>

namespace gsph::sph {

enum class SphFunction {
    kDomainDecompAndSync = 0,
    kFindNeighbors,
    kXMass,
    kNormalizationGradh,
    kEquationOfState,
    kIadVelocityDivCurl,
    kAVswitches,
    kMomentumEnergy,
    kGravity,
    kEnergyConservation,
    kTimestep,
    kUpdateQuantities,
    kUpdateSmoothingLength,
};

inline constexpr int kSphFunctionCount = 13;

const char* to_string(SphFunction fn);
/// All functions in execution order; gravity is skipped by workloads
/// without self-gravity (`include_gravity = false`).
std::vector<SphFunction> function_order(bool include_gravity);
/// Functions dominated by collective communication rather than kernels.
bool is_collective(SphFunction fn);

struct SphConfig {
    double gamma = 5.0 / 3.0; ///< ideal-gas adiabatic index
    KernelType kernel_type = KernelType::kCubicSpline;
    double cfl = 0.25;
    int ng_target = 100; ///< target neighbour count (SPH-EXA default ~100)
    int ngmax = 150;
    // artificial viscosity (Monaghan with per-particle switch)
    double av_alpha_min = 0.05;
    double av_alpha_max = 1.0;
    double av_beta_factor = 2.0; ///< beta = factor * alpha
    double av_decay = 0.1;       ///< switch decay rate toward alpha_min
    bool gravity = false;
    GravityConfig grav;
    double u_floor = 1e-9; ///< internal energy floor
    double max_dt = 1e-2;
    double min_h_factor = 0.8, max_h_factor = 1.2; ///< per-step h change clamp
};

/// Global diagnostics produced by EnergyConservation.
struct StepDiagnostics {
    double e_kinetic = 0.0;
    double e_internal = 0.0;
    double e_gravitational = 0.0;
    double e_total = 0.0;
    Vec3 momentum;
    double mass = 0.0;
    double rho_max = 0.0;
    double rho_mean = 0.0;
};

/// One rank's SPH domain: particles + geometry + scratch structures, with
/// the paper's per-function decomposition as its public interface.
class SphSimulation {
public:
    SphSimulation(ParticleSet particles, Box box, SphConfig config);

    // --- the SPH-EXA time-stepping functions (execution order) ------------
    gpusim::KernelWork domain_decomp_and_sync();
    gpusim::KernelWork find_neighbors();
    gpusim::KernelWork xmass();
    gpusim::KernelWork normalization_gradh();
    gpusim::KernelWork equation_of_state();
    gpusim::KernelWork iad_velocity_div_curl();
    gpusim::KernelWork av_switches();
    gpusim::KernelWork momentum_energy();
    gpusim::KernelWork gravity();
    gpusim::KernelWork energy_conservation();
    gpusim::KernelWork timestep();
    gpusim::KernelWork update_quantities();
    gpusim::KernelWork update_smoothing_length();

    /// Dispatch by enum (used by the instrumented driver).
    gpusim::KernelWork run_function(SphFunction fn);

    /// Convenience: run one full time-step in order; `observer`, when set,
    /// is called after each function with the work it submitted.
    using Observer = std::function<void(SphFunction, const gpusim::KernelWork&)>;
    void step(const Observer& observer = {});

    /// Cap the host threads of the per-particle passes (FindNeighbors,
    /// XMass, NormalizationGradh, IADVelocityDivCurl, MomentumEnergy,
    /// Gravity), which run on util::ThreadPool::shared(); <= 0, the
    /// default, uses the whole pool.  Results do not depend on it.
    void set_max_threads(int max_threads) { max_threads_ = max_threads; }

    // --- state access -------------------------------------------------------
    const ParticleSet& particles() const { return particles_; }
    ParticleSet& particles() { return particles_; }
    const Box& box() const { return box_; }
    const SphConfig& config() const { return config_; }
    const NeighborList& neighbors() const { return neighbors_; }
    const Octree& octree() const { return octree_; }
    const StepDiagnostics& diagnostics() const { return diagnostics_; }
    double dt() const { return dt_; }
    double time() const { return time_; }
    long step_index() const { return step_index_; }
    double mean_neighbor_count() const;

private:
    ParticleSet particles_;
    Box box_;
    SphConfig config_;
    KernelTable kernel_;
    NeighborList neighbors_;
    Octree octree_;
    GravityStats gravity_stats_;
    StepDiagnostics diagnostics_;
    double dt_ = 1e-6;
    double time_ = 0.0;
    long step_index_ = 0;
    bool neighbors_valid_ = false;
    int max_threads_ = 0;
};

} // namespace gsph::sph
