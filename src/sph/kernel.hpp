#pragma once
/// \file kernel.hpp
/// \brief Smoothing kernels (cubic B-spline, Wendland C2) with lookup
/// tables, following SPH-EXA's table-based kernel evaluation.
///
/// Conventions: support radius is 2h, q = r/h in [0, 2].  W integrates to 1
/// over R^3.  dW/dr = (1/h) * dW/dq evaluated via the derivative table.

#include <array>
#include <cstddef>

namespace gsph::sph {

enum class KernelType { kCubicSpline, kWendlandC2 };

/// Analytic cubic B-spline kernel value, normalized for 3D (sigma = 1/pi).
double cubic_spline_w(double q, double h);
/// Analytic cubic B-spline dW/dq / h^4 prefactored derivative: returns
/// dW/dr at separation r = q*h.
double cubic_spline_dw_dr(double q, double h);

/// Analytic Wendland C2 kernel (3D normalization 21/(16 pi), support 2h).
double wendland_c2_w(double q, double h);
double wendland_c2_dw_dr(double q, double h);

/// Tabulated kernel with linear interpolation; amortizes transcendental
/// costs the way the production code does.
class KernelTable {
public:
    static constexpr std::size_t kSize = 1024;
    static constexpr double kQMax = 2.0;

    explicit KernelTable(KernelType type = KernelType::kCubicSpline);

    KernelType type() const { return type_; }

    // Defined inline: these sit in every SPH pair loop.

    /// W(r, h); zero outside the support radius 2h.
    double w(double r, double h) const
    {
        const double q = r / h;
        return lookup(w_table_, q) / (h * h * h);
    }
    /// dW/dr (r, h); zero outside support (and at r = 0 by symmetry).
    double dw_dr(double r, double h) const
    {
        const double q = r / h;
        return lookup(dw_table_, q) / (h * h * h * h);
    }
    /// dW/dh (r, h) for gradh correction terms:
    /// dW/dh = -(3 W + q dW/dq)/h for any 3D kernel of the form h^-3 f(q).
    double dw_dh(double r, double h) const
    {
        const double q = r / h;
        // dW/dq = h * dW/dr.
        const double w_val = w(r, h);
        const double dw_dq = lookup(dw_table_, q) / (h * h * h);
        return -(3.0 * w_val + q * dw_dq) / h;
    }

private:
    static double lookup(const std::array<double, kSize + 1>& table, double q)
    {
        if (q < 0.0 || q >= kQMax) return 0.0;
        const double pos = q / kQMax * static_cast<double>(kSize);
        const std::size_t i = static_cast<std::size_t>(pos);
        const double frac = pos - static_cast<double>(i);
        return table[i] * (1.0 - frac) + table[i + 1] * frac;
    }

    KernelType type_;
    std::array<double, kSize + 1> w_table_{};  ///< h^3 * W at q
    std::array<double, kSize + 1> dw_table_{}; ///< h^4 * dW/dr at q
};

/// Process-wide shared table for the default kernel (construction is cheap
/// but doing it once keeps hot loops clean).
const KernelTable& default_kernel();

} // namespace gsph::sph
