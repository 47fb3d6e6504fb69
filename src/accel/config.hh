/**
 * @file
 * Accelerator configurations (paper Table 4) and the evaluated schemes
 * (Sec. 5): TPU, SuperNPU (SHIFT), SRAM, Heter, Pipe, and SMART.
 *
 * The calibration knobs declared here are the only free parameters of
 * the end-to-end model; they are tuned once against the published
 * anchors (SuperNPU at 16 % / 40 % of peak for single/batch inference).
 * The resulting model outputs are pinned bit-for-bit in
 * tests/test_model_anchors.cc — retune a knob and that test must be
 * re-anchored in the same change.
 */

#ifndef SMART_ACCEL_CONFIG_HH
#define SMART_ACCEL_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/units.hh"
#include "cryomem/tech.hh"
#include "systolic/dataflow.hh"

namespace smart::accel
{

/** Evaluated schemes, in the paper's figure order. */
enum class Scheme
{
    Tpu,      //!< CMOS baseline (Table 4 row 1).
    SuperNpu, //!< SHIFT-based SFQ accelerator (Table 4 row 2).
    Sram,     //!< SuperNPU with Josephson-CMOS SRAM SPMs.
    Heter,    //!< SRAM scheme + three 32 KB SHIFT staging arrays.
    Pipe,     //!< Heter with the pipelined CMOS-SFQ RANDOM array.
    Smart     //!< Pipe + the ILP compiler with prefetching (Table 4).
};

/** Scheme name as used in the paper's figures. */
const char *schemeName(Scheme s);

/** Calibration knobs (see file header). */
struct CalibrationKnobs
{
    /**
     * Bytes of stream context the SuperNPU data-alignment unit holds;
     * address jumps inside the window cost no lane shifts.
     */
    double dauWindowBytes = 2048;
    /**
     * Inter-layer ring re-layout passes over each output byte in a
     * SHIFT-only SPM (drain + re-order for the next layer's stream).
     */
    double interLayerReorderFactor = 2.0;
    /** TPU steady-state efficiency on large convolutions. */
    double tpuEfficiency = 0.85;
    /**
     * SHIFT lanes are clock-gated in segments; one shift step activates
     * min(laneBytes, segment) bytes of DFFs (energy accounting).
     */
    double shiftSegmentBytes = 32;
    /**
     * Fraction of CMOS-SFQ sub-banks awake on average (power gating of
     * idle sub-banks), applied to the array leakage in system energy.
     */
    double leakageActivityFactor = 0.1;
    /**
     * Outstanding requests a non-pipelined random SPM sustains (the
     * accelerator's limited request buffering); the pipelined CMOS-SFQ
     * array instead sustains its full pipeline depth.
     */
    double randomOutstanding = 4.0;
};

/** One scratchpad resource of a configuration. */
struct SpmSpec
{
    std::uint64_t capacityBytes = 0;
    int banks = 0;
};

/** Full accelerator configuration (Table 4 + scheme structure). */
struct AcceleratorConfig
{
    Scheme scheme = Scheme::Smart;
    std::string name;
    systolic::ArrayDims pe{64, 256};
    Gigahertz clockGhz{52.6};
    double temperatureK = 4.0;
    double coolingFactor = 400.0; //!< 1.0 at room temperature.

    SpmSpec inputSpm;   //!< SHIFT array (SuperNPU/Heter+/staging).
    SpmSpec outputSpm;  //!< SHIFT output/PSum array.
    SpmSpec weightSpm;  //!< SHIFT weight array.
    bool spmsAreShift = true; //!< False for the SRAM scheme.

    SpmSpec randomArray;            //!< Shared RANDOM array (0 = none).
    cryo::MemTech randomTech = cryo::MemTech::CmosSfq;
    /** Override for the Fig. 25 write-latency sensitivity (0 = model). */
    Nanoseconds randomWriteLatencyNsOverride{};

    int prefetchIterations = 1; //!< a; 1 disables prefetching.
    bool useIlpCompiler = false;

    double dramBandwidthGBs = 300.0;
    CalibrationKnobs knobs;

    /** Peak throughput (TMAC/s). */
    double peakTmacs() const;
    /** Accelerator cycle time. */
    Picoseconds cyclePs() const { return units::ghzToPs(clockGhz); }
    /** DRAM bandwidth in bytes per accelerator cycle. */
    double dramBytesPerCycle() const;
    /** True if the configuration has a RANDOM array. */
    bool hasRandomArray() const { return randomArray.capacityBytes > 0; }
    /** Total on-chip SPM capacity (bytes). */
    std::uint64_t totalSpmBytes() const;
    /**
     * Why runLayer cannot evaluate this configuration (a zero bank
     * count or rate it divides by), or null.
     */
    const char *invalidReason() const;
};

/** Table 4 TPU configuration. */
AcceleratorConfig makeTpu();
/** Table 4 SuperNPU configuration. */
AcceleratorConfig makeSuperNpu();
/** SRAM scheme (Sec. 5). */
AcceleratorConfig makeSramScheme();
/** Heter scheme (Sec. 5). */
AcceleratorConfig makeHeterScheme();
/** Pipe scheme (Sec. 5). */
AcceleratorConfig makePipeScheme();
/** Table 4 SMART configuration (prefetch a = 3, ILP compiler). */
AcceleratorConfig makeSmart();
/** Construct any scheme by enum. */
AcceleratorConfig makeScheme(Scheme s);

} // namespace smart::accel

#endif // SMART_ACCEL_CONFIG_HH
