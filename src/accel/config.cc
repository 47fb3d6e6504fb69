#include "accel/config.hh"

#include "common/logging.hh"

namespace smart::accel
{

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Tpu:
        return "TPU";
      case Scheme::SuperNpu:
        return "SHIFT";
      case Scheme::Sram:
        return "SRAM";
      case Scheme::Heter:
        return "Heter";
      case Scheme::Pipe:
        return "Pipe";
      case Scheme::Smart:
        return "SMART";
    }
    smart_panic("unknown scheme");
}

double
AcceleratorConfig::peakTmacs() const
{
    return static_cast<double>(pe.pes()) * clockGhz.value() * 1e9 / 1e12;
}

double
AcceleratorConfig::dramBytesPerCycle() const
{
    return dramBandwidthGBs * 1e9 / (clockGhz.value() * 1e9);
}

std::uint64_t
AcceleratorConfig::totalSpmBytes() const
{
    return inputSpm.capacityBytes + outputSpm.capacityBytes +
           weightSpm.capacityBytes + randomArray.capacityBytes;
}

const char *
AcceleratorConfig::invalidReason() const
{
    if (inputSpm.banks <= 0 || outputSpm.banks <= 0 || weightSpm.banks <= 0)
        return "SPM bank count must be >= 1";
    if (hasRandomArray() && randomArray.banks <= 0)
        return "RANDOM array bank count must be >= 1";
    // Negated comparisons also reject NaN.
    if (!(clockGhz.value() > 0.0))
        return "clock must be > 0";
    if (!(dramBandwidthGBs > 0.0))
        return "DRAM bandwidth must be > 0";
    if (prefetchIterations < 1)
        return "prefetchIterations must be >= 1";
    return nullptr;
}

AcceleratorConfig
makeTpu()
{
    AcceleratorConfig c;
    c.scheme = Scheme::Tpu;
    c.name = "TPU";
    c.pe = {256, 256};
    c.clockGhz = Gigahertz{0.7};
    c.temperatureK = 300.0;
    c.coolingFactor = 1.0;
    // Table 4: input, weight, and output 24 MB; PSum 4 MB (folded into
    // the output resource).
    c.inputSpm = {24 * units::mib, 256};
    c.outputSpm = {24 * units::mib + 4 * units::mib, 256};
    c.weightSpm = {24 * units::mib, 256};
    c.spmsAreShift = false; // conventional SRAM, random access
    c.randomArray = {0, 0};
    return c;
}

AcceleratorConfig
makeSuperNpu()
{
    AcceleratorConfig c;
    c.scheme = Scheme::SuperNpu;
    c.name = "SuperNPU";
    c.pe = {64, 256};
    c.clockGhz = Gigahertz{52.6};
    // Table 4: 64-bank 24 MB input, 256-bank 24 MB output/PSum,
    // 128 KB weight SHIFT buffers.
    c.inputSpm = {24 * units::mib, 64};
    c.outputSpm = {24 * units::mib, 256};
    c.weightSpm = {128 * units::kib, 64};
    c.spmsAreShift = true;
    c.randomArray = {0, 0};
    return c;
}

AcceleratorConfig
makeSramScheme()
{
    // SuperNPU with all SHIFT arrays replaced by Josephson-CMOS SRAM of
    // TPU capacity (Sec. 5).
    AcceleratorConfig c = makeSuperNpu();
    c.scheme = Scheme::Sram;
    c.name = "SRAM";
    c.spmsAreShift = false;
    c.inputSpm = {24 * units::mib, 64};
    c.outputSpm = {24 * units::mib + 4 * units::mib, 256};
    c.weightSpm = {24 * units::mib, 64};
    c.randomTech = cryo::MemTech::JcsSram;
    return c;
}

AcceleratorConfig
makeHeterScheme()
{
    // Three 32 KB SHIFT staging arrays + a shared 28 MB J-CMOS SRAM
    // RANDOM array; ideal allocation, no prefetch.
    AcceleratorConfig c = makeSuperNpu();
    c.scheme = Scheme::Heter;
    c.name = "Heter";
    c.inputSpm = {32 * units::kib, 256};
    c.outputSpm = {32 * units::kib, 256};
    c.weightSpm = {32 * units::kib, 256};
    c.randomArray = {28 * units::mib, 256};
    c.randomTech = cryo::MemTech::JcsSram;
    return c;
}

AcceleratorConfig
makePipeScheme()
{
    AcceleratorConfig c = makeHeterScheme();
    c.scheme = Scheme::Pipe;
    c.name = "Pipe";
    c.randomTech = cryo::MemTech::CmosSfq;
    return c;
}

AcceleratorConfig
makeSmart()
{
    AcceleratorConfig c = makePipeScheme();
    c.scheme = Scheme::Smart;
    c.name = "SMART";
    c.prefetchIterations = 3;
    c.useIlpCompiler = true;
    return c;
}

AcceleratorConfig
makeScheme(Scheme s)
{
    switch (s) {
      case Scheme::Tpu:
        return makeTpu();
      case Scheme::SuperNpu:
        return makeSuperNpu();
      case Scheme::Sram:
        return makeSramScheme();
      case Scheme::Heter:
        return makeHeterScheme();
      case Scheme::Pipe:
        return makePipeScheme();
      case Scheme::Smart:
        return makeSmart();
    }
    smart_panic("unknown scheme");
}

} // namespace smart::accel
