#include "sph/neighbors.hpp"

#include "sph/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gsph::sph {

namespace {

/// Widening of each particle's cell range, in cells, so that rounding at a
/// cell face, or in the cell width on a periodic axis, can never drop a pair.
constexpr double kCellSlack = 1e-9;

/// One axis of the cell list: `n` cells of equal width tiling [lo, lo + L).
struct Axis {
    double lo = 0.0;
    double inv_w = 1.0;
    int n = 1;
    bool periodic = false;

    Axis(double lo_, double len, bool periodic_, double width, int max_cells)
        : lo(lo_), periodic(periodic_)
    {
        n = std::clamp(static_cast<int>(std::floor(len / width)), 1, max_cells);
        inv_w = static_cast<double>(n) / len;
    }

    /// floor(u) for a coordinate `u` in cell units, bounded to +-2n so the
    /// int cast is defined.
    int floor_cell(double u) const
    {
        const double bound = 2.0 * static_cast<double>(n);
        return static_cast<int>(std::floor(std::clamp(u, -bound, bound)));
    }

    int cell(double v) const { return std::clamp(floor_cell((v - lo) * inv_w), 0, n - 1); }

    /// Cells [first, last] under [v - r, v + r], with 0 <= first < n.  On a
    /// periodic axis `last` may pass n - 1 (wrap() maps it back) and the
    /// range holds each cell at most once: a range as wide as the axis
    /// becomes the whole axis.
    void range(double v, double r, int& first, int& last) const
    {
        first = floor_cell((v - r - lo) * inv_w - kCellSlack);
        last = floor_cell((v + r - lo) * inv_w + kCellSlack);
        if (!periodic) {
            first = std::clamp(first, 0, n - 1);
            last = std::clamp(last, 0, n - 1);
        }
        else if (last - first + 1 >= n) {
            first = 0;
            last = n - 1;
        }
        else {
            for (; first < 0; first += n) last += n;
            for (; first >= n; first -= n) last -= n;
        }
    }

    int wrap(int c) const { return c >= n ? c - n : c; }
};

} // namespace

std::size_t find_all_neighbors(ParticleSet& particles, const Box& box, NeighborList& out,
                               int max_threads)
{
    const std::size_t n = particles.size();
    double hmax = 0.0;
    for (double hi : particles.h) hmax = std::max(hmax, hi);
    if (hmax <= 0.0) throw std::invalid_argument("find_all_neighbors: non-positive h");

    // Cells about hmax wide, capped so tiny particle sets do not get
    // pathological cell counts.
    const int max_cells = 4 * std::max(1, static_cast<int>(std::cbrt(static_cast<double>(n))));
    const Axis ax(box.lo.x, box.lx(), box.periodic_x, hmax, max_cells);
    const Axis ay(box.lo.y, box.ly(), box.periodic_y, hmax, max_cells);
    const Axis az(box.lo.z, box.lz(), box.periodic_z, hmax, max_cells);

    // Counting sort into one flat cell list: the particles of cell c are
    // order[start[c] .. start[c + 1]), in index order, with their positions
    // copied alongside so a scan reads contiguous memory.
    const std::size_t n_cells = static_cast<std::size_t>(ax.n) * ay.n * az.n;
    std::vector<std::uint32_t> start(n_cells + 1, 0);
    std::vector<std::uint32_t> cell_of(n);
    for (std::size_t i = 0; i < n; ++i) {
        cell_of[i] = static_cast<std::uint32_t>(
            (static_cast<std::size_t>(az.cell(particles.z[i])) * ay.n +
             static_cast<std::size_t>(ay.cell(particles.y[i]))) * ax.n +
            static_cast<std::size_t>(ax.cell(particles.x[i])));
        ++start[cell_of[i] + 1];
    }
    for (std::size_t c = 0; c < n_cells; ++c) start[c + 1] += start[c];
    std::vector<std::uint32_t> order(n);
    std::vector<Vec3> sorted_pos(n);
    {
        std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t k = fill[cell_of[i]]++;
            order[k] = static_cast<std::uint32_t>(i);
            sorted_pos[k] = particles.pos(i);
        }
    }

    const auto ngmax = static_cast<std::size_t>(out.ngmax);
    out.counts.resize(n);
    if (out.list.size() < n * ngmax) out.list.resize(n * ngmax);
    std::vector<std::uint32_t> pre_cap(n);

    for_each_particle(n, max_threads, [&](std::size_t i) {
        // Reused per thread, so only a thread's first particles allocate.
        thread_local std::vector<std::uint32_t> found;
        found.clear();
        const Vec3 xi = particles.pos(i);
        const double radius = 2.0 * particles.h[i];
        const double r2max = radius * radius;

        // Test the particles of cells [c0, c1] of one x-row.
        auto scan = [&](std::size_t row, int c0, int c1) {
            for (std::uint32_t k = start[row + c0]; k < start[row + c1 + 1]; ++k) {
                if (order[k] == i) continue;
                if (box.min_image(xi, sorted_pos[k]).norm2() < r2max) {
                    found.push_back(order[k]);
                }
            }
        };
        int x0, x1, y0, y1, z0, z1;
        ax.range(xi.x, radius, x0, x1);
        ay.range(xi.y, radius, y0, y1);
        az.range(xi.z, radius, z0, z1);
        for (int cz = z0; cz <= z1; ++cz) {
            for (int cy = y0; cy <= y1; ++cy) {
                const std::size_t row =
                    (static_cast<std::size_t>(az.wrap(cz)) * ay.n + ay.wrap(cy)) * ax.n;
                // A wrapped x-range is two runs of adjacent cells.
                scan(row, x0, std::min(x1, ax.n - 1));
                if (x1 >= ax.n) scan(row, 0, x1 - ax.n);
            }
        }

        pre_cap[i] = static_cast<std::uint32_t>(found.size());
        if (found.size() > ngmax) {
            // Keep the lowest (SFC-ordered) indices so the kept set does not
            // depend on the cell layout.
            std::partial_sort(found.begin(), found.begin() + ngmax, found.end());
            found.resize(ngmax);
        }
        particles.nc[i] = static_cast<int>(found.size());
        out.counts[i] = static_cast<std::uint32_t>(found.size());
        std::copy(found.begin(), found.end(), out.list.begin() + i * ngmax);
    });

    // Serial, index-ordered reductions.
    out.truncated.clear();
    std::size_t total_pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        total_pairs += pre_cap[i];
        if (pre_cap[i] > ngmax) out.truncated.push_back(static_cast<int>(i));
    }
    return total_pairs;
}

} // namespace gsph::sph
