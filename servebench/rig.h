// The recorded option set of the benchmark, its seeded query generators and
// the set-up that prepares the served store.
//
// Every knob that shapes the measured work lives here, in one place, so a
// result is reproducible from (commit, seed, workload) alone: the pool size,
// the characterization and surface grids, the arcs and corners, the load
// mixes and the socket server's batching options.
#ifndef SERVEBENCH_RIG_H
#define SERVEBENCH_RIG_H

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cells/library.h"
#include "net/server.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"
#include "serve/timing_service.h"
#include "tech/tech130.h"

namespace servebench {

// Pool threads every characterization, surface build and batch fans out
// over (pinned through MCSM_THREADS before the pool first starts).
constexpr std::size_t kPoolThreads = 2;

mcsm::serve::RepositoryOptions repository_options(
    const std::string& model_dir,
    std::shared_ptr<mcsm::serve::PackHost> pack);
mcsm::serve::ServeOptions serve_options(
    const std::string& surface_dir,
    std::shared_ptr<mcsm::serve::PackHost> pack, std::size_t threads);
mcsm::net::NetServerOptions server_options(const std::string& socket_path);

// One timing arc of the warm mix: cell, switching pins, direction, corner.
struct Arc {
    std::string cell;
    std::vector<std::string> pins;
    bool rise = false;
    mcsm::serve::Corner corner;
};

// INV_X1 (1 pin), NOR2 and NAND2 (2 pins), NAND3 (3 pins), both input
// directions, nominal and derated (NAND3 nominal only): the 14 surfaces
// set-up prepares.
const std::vector<Arc>& warm_arcs();

// Seeded query streams. The program under test only ever sees the lines
// these render; the same seed gives the same lines.
class QueryGen {
public:
    explicit QueryGen(std::uint64_t seed);

    // Warm mix, query i: arc i mod |warm_arcs()| with seeded in-hull
    // slews, skews and loads, an RC pi load for 2 of every 5 rounds. The
    // arc and load-kind composition is fixed, only coordinates come from
    // the seed, so seeds do not shift the mix's cost.
    mcsm::serve::TimingQuery warm(std::size_t i);

    // A seeded warm query on a random arc with `pins` switching pins (any
    // pin count when 0), with (`pi`) or without an RC pi load.
    mcsm::serve::TimingQuery warm_of(std::size_t pins, bool pi);

    // Accuracy probe: a random warm arc with every coordinate on a surface
    // knot and a lumped load. The grids are deliberately coarse (see
    // serve_options), so the probe checks that surfaces were built,
    // persisted, packed and mapped faithfully, not interpolation accuracy.
    mcsm::serve::TimingQuery probe();

    // Cold query number k of this run: NOR2 rising (every 16th a NAND3
    // rising) at a Vdd/temperature corner no other query of the run uses.
    // One arc per pin count keeps the cold cost the same across seeds.
    mcsm::serve::TimingQuery cold(std::size_t k);

    // A corner unique to (seed, k), distinct from every warm corner.
    mcsm::serve::Corner fresh_corner(std::size_t k) const;

private:
    double uniform(double lo, double hi);
    std::size_t pick(std::size_t n);
    void fill_coords(mcsm::serve::TimingQuery& q, bool knot_exact);
    mcsm::serve::TimingQuery on_arc(const Arc& arc, bool pi);

    std::uint64_t seed_;
    std::mt19937_64 gen_;
};

// A repository and service over one pack, as a restarted server opens it.
struct Served {
    std::shared_ptr<mcsm::serve::PackHost> pack;
    std::unique_ptr<mcsm::serve::ModelRepository> repo;
    std::unique_ptr<mcsm::serve::TimingService> service;
};

// Opens `pack_path` with a fresh repository (characterize-on-miss against
// `lib` for keys the pack lacks) and service, then touches every warm arc
// once so its model and surface are resident.
Served open_served(const mcsm::cells::CellLibrary& lib,
                   const std::string& pack_path);

// The served stack one run measures: nominal library, the reopened
// repository/service over the set-up's pack, and the set-up timings.
struct Stack {
    mcsm::tech::Technology tech = mcsm::tech::make_tech130();
    mcsm::cells::CellLibrary lib{tech};
    std::string work_dir;
    std::string pack_path;
    Served served;

    // Wall time of each set-up repetition [s].
    std::vector<double> setup_s;

    explicit Stack(std::string dir);
    ~Stack();
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    // One full set-up: a fresh store directory, characterize-on-miss and a
    // surface build for every warm arc (persisted to the per-file store),
    // bundling the store into a pack, then reopening the pack with a fresh
    // repository and service and touching every arc once. The last
    // repetition's reopened service is the one that serves.
    void setup(int rep);
};

}  // namespace servebench

#endif  // SERVEBENCH_RIG_H
