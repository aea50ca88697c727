#pragma once
/// \file types.hpp
/// \brief Geometric primitives for the SPH solver.

#include <array>
#include <cmath>

namespace gsph::sph {

struct Vec3 {
    double x = 0.0, y = 0.0, z = 0.0;

    Vec3() = default;
    constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

    constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
    constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
    constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
    constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
    Vec3& operator+=(const Vec3& o)
    {
        x += o.x;
        y += o.y;
        z += o.z;
        return *this;
    }
    Vec3& operator-=(const Vec3& o)
    {
        x -= o.x;
        y -= o.y;
        z -= o.z;
        return *this;
    }
    Vec3& operator*=(double s)
    {
        x *= s;
        y *= s;
        z *= s;
        return *this;
    }

    constexpr double dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
    constexpr Vec3 cross(const Vec3& o) const
    {
        return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
    }
    double norm2() const { return dot(*this); }
    double norm() const { return std::sqrt(norm2()); }
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

/// Axis-aligned simulation box with optional periodicity per axis.
struct Box {
    Vec3 lo{0.0, 0.0, 0.0};
    Vec3 hi{1.0, 1.0, 1.0};
    bool periodic_x = false;
    bool periodic_y = false;
    bool periodic_z = false;

    static Box cube(double lo, double hi, bool periodic)
    {
        Box b;
        b.lo = {lo, lo, lo};
        b.hi = {hi, hi, hi};
        b.periodic_x = b.periodic_y = b.periodic_z = periodic;
        return b;
    }

    double lx() const { return hi.x - lo.x; }
    double ly() const { return hi.y - lo.y; }
    double lz() const { return hi.z - lo.z; }

    /// Minimum-image displacement a - b under the box's periodicity, for
    /// points at most one box length apart per axis (any two points inside
    /// the box).  One compare-and-shift by +-L per axis: for components
    /// clearly shorter than L/2 this is bit-identical to d - L * round(d / L).
    Vec3 min_image(const Vec3& a, const Vec3& b) const
    {
        Vec3 d = a - b;
        if (periodic_x) d.x = shift_into_half(d.x, lx());
        if (periodic_y) d.y = shift_into_half(d.y, ly());
        if (periodic_z) d.z = shift_into_half(d.z, lz());
        return d;
    }

    /// Wrap a position back into the box (periodic axes only).
    Vec3 wrap(Vec3 p) const
    {
        if (periodic_x) p.x = lo.x + std::fmod(std::fmod(p.x - lo.x, lx()) + lx(), lx());
        if (periodic_y) p.y = lo.y + std::fmod(std::fmod(p.y - lo.y, ly()) + ly(), ly());
        if (periodic_z) p.z = lo.z + std::fmod(std::fmod(p.z - lo.z, lz()) + lz(), lz());
        return p;
    }

    bool contains(const Vec3& p) const
    {
        return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y && p.z >= lo.z &&
               p.z <= hi.z;
    }

private:
    static double shift_into_half(double d, double len)
    {
        const double half = 0.5 * len;
        if (d > half) return d - len;
        if (d < -half) return d + len;
        return d;
    }
};

/// Symmetric 3x3 matrix (IAD tensor) stored as upper triangle.
struct Sym3 {
    double xx = 0.0, xy = 0.0, xz = 0.0, yy = 0.0, yz = 0.0, zz = 0.0;

    double det() const
    {
        return xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz) +
               xz * (xy * yz - yy * xz);
    }

    /// Inverse; returns identity-scaled fallback when near-singular.
    Sym3 inverse() const
    {
        const double d = det();
        if (std::fabs(d) < 1e-30) {
            // Degenerate neighbourhood (coplanar particles): fall back to a
            // diagonal pseudo-inverse so gradients stay finite.
            const double tr = xx + yy + zz;
            const double s = tr > 1e-30 ? 3.0 / tr : 0.0;
            return Sym3{s, 0.0, 0.0, s, 0.0, s};
        }
        Sym3 inv;
        inv.xx = (yy * zz - yz * yz) / d;
        inv.xy = (xz * yz - xy * zz) / d;
        inv.xz = (xy * yz - xz * yy) / d;
        inv.yy = (xx * zz - xz * xz) / d;
        inv.yz = (xy * xz - xx * yz) / d;
        inv.zz = (xx * yy - xy * xy) / d;
        return inv;
    }

    Vec3 mul(const Vec3& v) const
    {
        return {xx * v.x + xy * v.y + xz * v.z, xy * v.x + yy * v.y + yz * v.z,
                xz * v.x + yz * v.y + zz * v.z};
    }
};

} // namespace gsph::sph
