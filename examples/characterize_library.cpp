// Library characterization flow: build CSM models for a set of cells, write
// them as a model store of single-entry packs, and reload them - the cache
// pattern a timing tool would use so characterization runs once per library
// release. The output directory is the layout ModelRepository keeps
// (<out_dir>/<ModelKey>.mcsmpack), so timing_serverd --model-dir and
// mcsm_lint read it as it is.
//
// The jobs are independent and fan out over the process thread pool; each
// characterization runs its own testbench fixtures and solver workspaces.
// (Per-job sweep parallelism degrades gracefully to inline execution while
// the jobs themselves occupy the pool.)
//
//   $ ./characterize_library [output_dir]
//
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cells/library.h"
#include "common/parallel.h"
#include "core/characterizer.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"
#include "tech/tech130.h"

using namespace mcsm;

int main(int argc, char** argv) {
    const std::string out_dir = argc > 1 ? argv[1] : "models";
    std::filesystem::create_directories(out_dir);

    const tech::Technology tech = tech::make_tech130();
    const cells::CellLibrary lib(tech);
    const core::Characterizer characterizer(lib);

    struct Job {
        const char* cell;
        core::ModelKind kind;
        std::vector<std::string> pins;
        std::size_t grid;
    };
    const std::vector<Job> jobs{
        {"INV_X1", core::ModelKind::kSis, {"A"}, 13},
        {"INV_X2", core::ModelKind::kSis, {"A"}, 13},
        {"INV_X4", core::ModelKind::kSis, {"A"}, 13},
        {"NOR2", core::ModelKind::kMcsm, {"A", "B"}, 11},
        {"NOR2", core::ModelKind::kMisBaseline, {"A", "B"}, 11},
        {"NAND2", core::ModelKind::kMcsm, {"A", "B"}, 11},
        {"NOR3", core::ModelKind::kMcsm, {"A", "B"}, 7},
        {"NAND3", core::ModelKind::kMcsm, {"A", "B"}, 7},
        {"AOI21", core::ModelKind::kMcsm, {"A", "C"}, 7},
        {"OAI21", core::ModelKind::kMcsm, {"A", "C"}, 7},
    };

    struct Row {
        core::CsmModel model;
        double ms = 0.0;
        std::string key;
        std::string file;
    };
    std::vector<Row> rows(jobs.size());

    const auto wall_start = std::chrono::steady_clock::now();
    parallel_for(jobs.size(), [&](std::size_t i) {
        const Job& job = jobs[i];
        core::CharOptions opt;
        opt.grid_points = job.grid;
        opt.transient_caps = false;  // set true for the paper-faithful flow

        const auto start = std::chrono::steady_clock::now();
        rows[i].model =
            characterizer.characterize(job.cell, job.kind, job.pins, opt);
        rows[i].ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        rows[i].key = serve::ModelKey{job.cell, job.kind, job.pins, {}}
                          .to_string();
        rows[i].file = out_dir + "/" + rows[i].key + serve::kPackExt;
        serve::PackWriter writer;
        writer.add_model(rows[i].key, rows[i].model);
        writer.write(rows[i].file);
    });
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();

    std::printf("%-10s %-14s %6s %10s %10s  %s\n", "cell", "kind", "dims",
                "entries", "char/ms", "file");
    double sum_ms = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job& job = jobs[i];
        const Row& row = rows[i];

        // Round-trip check: the pack holds the model's exact bytes, and
        // the reloaded model must be usable.
        const auto pack = serve::MappedPack::map(row.file);
        if (pack->model_check(row.key) != serve::model_checksum(row.model)) {
            std::fprintf(stderr, "%s: checksum mismatch\n", row.file.c_str());
            return 1;
        }
        (void)pack->materialize_model(row.key);

        std::printf("%-10s %-14s %6zu %10zu %10.1f  %s (%.1f kB)\n", job.cell,
                    core::to_string(job.kind), row.model.dim(),
                    row.model.i_out.value_count(), row.ms, row.file.c_str(),
                    static_cast<double>(
                        std::filesystem::file_size(row.file)) / 1024.0);
        sum_ms += row.ms;
    }
    std::printf("\n%zu jobs on %zu threads: %.0f ms wall"
                " (%.0f ms of single-job work, %.2fx)\n",
                jobs.size(), hardware_threads(), wall_ms, sum_ms,
                sum_ms / wall_ms);
    std::printf("reload with serve::MappedPack::map(path)->materialize_model"
                "(key) - see quickstart.cpp\n");
    return 0;
}
