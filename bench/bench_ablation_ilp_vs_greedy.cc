/**
 * @file
 * Ablation (DESIGN.md Sec. 4): the ILP scheduler vs the greedy
 * allocator on every layer of every model — objective values and the
 * prefetch coverage each achieves.
 *
 * With --layers it instead prints one tab-separated row per distinct
 * layer ILP that SMART evaluation solves: the six CNNs on makeSmart(),
 * with the scheduler parameters runLayer uses. The schedule does not
 * depend on the batch, so a layer shape is one ILP at batch 1 and at
 * the paper batch. Each row gives the solve's status, objective
 * (hexfloat), B&B nodes, simplex pivots, the schedule's gap bound and
 * prefetched fraction, and runLayer's cycles at both batches.
 * scripts/layer_diff.py compares two such dumps.
 */

#include <cstdio>
#include <iostream>
#include <set>
#include <string>

#include "accel/hash.hh"
#include "bench_util.hh"
#include "compiler/greedy.hh"
#include "compiler/ilpsched.hh"
#include "ilp/solver.hh"

namespace
{

using namespace smart;

/** The per-layer dump behind --layers. */
int
dumpLayers()
{
    const accel::AcceleratorConfig cfg = accel::makeSmart();
    const compiler::SchedParams params = accel::schedParams(cfg);
    const std::string paramsKey = accel::schedParamsKey(params);
    const ilp::SolverOptions opts = compiler::ilpSolverOptions();
    std::printf("# model\tlayer\tstatus\tobjective\tnodes\tpivots\t"
                "gap_bound\tprefetched\tcycles_b1\tpaper_batch\t"
                "cycles_paper\n");
    std::set<std::string> seen;
    for (const auto &name : cnn::modelNames()) {
        const auto model = cnn::convLayersOnly(cnn::makeModel(name));
        const int paper = cnn::paperBatchSize(name, false);
        for (const auto &layer : model.layers) {
            // One row per distinct schedule memo entry.
            if (!seen.insert(accel::scheduleKey(layer, cfg.pe, paramsKey,
                                                accel::SchedMode::Ilp))
                     .second)
                continue;
            const compiler::LayerDag dag = compiler::buildLayerDag(
                layer, systolic::analyzeDemand(layer, cfg.pe));
            const ilp::Solution sol =
                ilp::solve(compiler::buildIlpModel(dag, params), opts);
            const compiler::Schedule sched =
                compiler::scheduleIlp(dag, params);
            std::printf(
                "%s\t%s\t%s\t%a\t%d\t%d\t%.9g\t%.9g\t%llu\t%d\t%llu\n",
                name.c_str(), layer.name.c_str(),
                ilp::statusName(sol.status), sol.objective, sol.bnbNodes,
                sol.simplexIters, sched.gapBound,
                sched.prefetchedFraction(dag),
                static_cast<unsigned long long>(
                    accel::runLayer(cfg, layer, 1).totalCycles),
                paper,
                static_cast<unsigned long long>(
                    accel::runLayer(cfg, layer, paper).totalCycles));
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace smart;
    using namespace smart::compiler;

    setInformEnabled(false);
    if (argc > 1 && std::string(argv[1]) == "--layers")
        return dumpLayers();

    SchedParams params;
    params.shiftCapacityBytes = ByteCount{32 * 1024};
    params.randomCapacityBytes = ByteCount{28ull * 1024 * 1024};
    params.prefetchIterations = 3;

    Table t({"model", "layers", "ILP wins", "ties", "greedy wins",
             "avg ILP/greedy obj", "avg ILP prefetch %",
             "avg B&B nodes"});
    for (const auto &name : cnn::modelNames()) {
        auto model = cnn::convLayersOnly(cnn::makeModel(name));
        int wins = 0, ties = 0, losses = 0;
        double ratio_sum = 0.0, pf_sum = 0.0, node_sum = 0.0;
        int counted = 0;
        for (const auto &layer : model.layers) {
            auto demand = systolic::analyzeDemand(layer, {64, 256});
            LayerDag dag = buildLayerDag(layer, demand);
            Schedule ilp = scheduleIlp(dag, params);
            Schedule greedy = scheduleGreedy(dag, params);
            if (greedy.objective > 0) {
                ratio_sum += ilp.objective / greedy.objective;
                ++counted;
            }
            pf_sum += ilp.prefetchedFraction(dag);
            node_sum += ilp.bnbNodes;
            if (ilp.objective > greedy.objective * 1.001)
                ++wins;
            else if (ilp.objective < greedy.objective * 0.999)
                ++losses;
            else
                ++ties;
        }
        const double n = static_cast<double>(model.layers.size());
        t.row()
            .cell(name)
            .integer(static_cast<long long>(model.layers.size()))
            .integer(wins)
            .integer(ties)
            .integer(losses)
            .num(counted ? ratio_sum / counted : 1.0, 3)
            .num(100.0 * pf_sum / n, 1)
            .num(node_sum / n, 1);
    }

    printBanner(std::cout, "Ablation: ILP scheduler vs greedy allocator");
    t.print(std::cout);
    std::cout << "the ILP should never lose on the shared cost model "
                 "(Sec. 4.3's near-optimal claim)\n";
    return 0;
}
