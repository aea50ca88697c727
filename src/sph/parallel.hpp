#pragma once
/// \file parallel.hpp
/// \brief Per-particle passes on the process-wide thread pool.
///
/// Every pooled SPH pass has the same shape: particle i reads shared state
/// and writes only its own slots, so chunks of particles can run on any
/// thread in any order and the result is bit-identical to the serial loop.
/// Anything summed across particles is reduced afterwards, serially and in
/// index order, by the caller.

#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstddef>

namespace gsph::sph {

/// Particles per parallel_for item: small enough to balance ~1,000
/// particles over a few threads, large enough that claiming a chunk costs
/// nothing next to its pair loops.
inline constexpr std::size_t kParticleChunk = 32;

/// Run body(i) for every i in [0, n) on util::ThreadPool::shared(), on at
/// most `max_threads` threads (<= 0: the whole pool).  `body` must write
/// only particle i's slots and must not allocate.
template <typename Body>
void for_each_particle(std::size_t n, int max_threads, const Body& body)
{
    const std::size_t chunks = (n + kParticleChunk - 1) / kParticleChunk;
    util::ThreadPool::shared().parallel_for(
        chunks,
        [n, &body](std::size_t c) {
            const std::size_t end = std::min(n, (c + 1) * kParticleChunk);
            for (std::size_t i = c * kParticleChunk; i < end; ++i) body(i);
        },
        max_threads);
}

} // namespace gsph::sph
