/**
 * @file
 * Tests for memory objects and the layer DAG builder (Fig. 15).
 */

#include <gtest/gtest.h>

#include "compiler/dag.hh"

namespace
{

using namespace smart;
using namespace smart::compiler;
using systolic::ConvLayer;

LayerDag
dagOf(const ConvLayer &layer, int max_iters = 6)
{
    auto demand = systolic::analyzeDemand(layer, {64, 256});
    DagBuildParams p;
    p.maxIterations = max_iters;
    return buildLayerDag(layer, demand, p);
}

TEST(MemObj, ClassNamesAreGreek)
{
    EXPECT_STREQ(objClassName(ObjClass::Weight), "alpha");
    EXPECT_STREQ(objClassName(ObjClass::Input), "beta");
    EXPECT_STREQ(objClassName(ObjClass::Output), "gamma");
    EXPECT_STREQ(objClassName(ObjClass::Psum), "delta");
}

TEST(Dag, IterationsBoundedByChunking)
{
    ConvLayer big = ConvLayer::conv("c", 27, 27, 96, 256, 5, 1, 2);
    LayerDag dag = dagOf(big, 6);
    EXPECT_EQ(dag.iterations, 6);
    EXPECT_GE(dag.foldsPerIteration * dag.iterations,
              dagOf(big).objects.size() / 4);
}

TEST(Dag, SmallLayersKeepNaturalFolds)
{
    ConvLayer small = ConvLayer::conv("c", 14, 14, 64, 128, 1);
    LayerDag dag = dagOf(small, 16);
    EXPECT_EQ(dag.iterations, 1); // one fold total
}

TEST(Dag, ObjectsPerIteration)
{
    ConvLayer l = ConvLayer::conv("c", 13, 13, 256, 384, 3);
    LayerDag dag = dagOf(l);
    for (int n = 0; n < dag.iterations; ++n) {
        auto objs = dag.objectsOf(n);
        // alpha, beta, gamma, delta (rowFolds > 1 so psums exist).
        EXPECT_EQ(objs.size(), 4u);
    }
}

TEST(Dag, NoPsumObjectsForSingleRowFold)
{
    ConvLayer l = ConvLayer::conv("c", 14, 14, 64, 128, 1);
    LayerDag dag = dagOf(l);
    for (const auto &o : dag.objects)
        EXPECT_NE(o.cls, ObjClass::Psum);
}

TEST(Dag, ClassBytesConserved)
{
    ConvLayer l = ConvLayer::conv("c", 13, 13, 256, 384, 3);
    auto demand = systolic::analyzeDemand(l, {64, 256});
    LayerDag dag = dagOf(l);
    // Weight bytes across chunks reconstruct the full tensor (within
    // rounding of the chunk division).
    EXPECT_NEAR(static_cast<double>(dag.classBytes(ObjClass::Weight)),
                static_cast<double>(demand.weightUniqueBytes),
                static_cast<double>(dag.iterations));
    EXPECT_NEAR(static_cast<double>(dag.classBytes(ObjClass::Output)),
                static_cast<double>(demand.outputUniqueBytes),
                static_cast<double>(dag.iterations));
}

TEST(Dag, CyclesPerIterationPositive)
{
    ConvLayer l = ConvLayer::conv("c", 27, 27, 96, 256, 5, 1, 2);
    LayerDag dag = dagOf(l);
    EXPECT_GT(dag.cyclesPerIteration, 0u);
}

} // namespace
