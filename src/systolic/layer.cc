#include "systolic/layer.hh"

#include "common/logging.hh"

namespace smart::systolic
{

int
ConvLayer::ofmapH() const
{
    return (ifmapH + 2 * pad - kernelH) / stride + 1;
}

int
ConvLayer::ofmapW() const
{
    return (ifmapW + 2 * pad - kernelW) / stride + 1;
}

std::uint64_t
ConvLayer::ofmapPixels() const
{
    return static_cast<std::uint64_t>(ofmapH()) * ofmapW();
}

std::uint64_t
ConvLayer::windowSize() const
{
    std::uint64_t k = static_cast<std::uint64_t>(kernelH) * kernelW;
    return depthwise ? k : k * inChannels;
}

std::uint64_t
ConvLayer::macs() const
{
    std::uint64_t per_pixel_filters =
        depthwise ? static_cast<std::uint64_t>(inChannels)
                  : static_cast<std::uint64_t>(filters);
    return ofmapPixels() * windowSize() * per_pixel_filters;
}

std::uint64_t
ConvLayer::ifmapBytes() const
{
    return static_cast<std::uint64_t>(ifmapH) * ifmapW * inChannels;
}

std::uint64_t
ConvLayer::weightBytes() const
{
    std::uint64_t per_filter = windowSize();
    std::uint64_t n = depthwise ? inChannels : filters;
    return per_filter * n;
}

std::uint64_t
ConvLayer::ofmapBytes() const
{
    std::uint64_t channels = depthwise ? inChannels : filters;
    return ofmapPixels() * channels;
}

const char *
ConvLayer::invalidReason() const
{
    if (ifmapH <= 0 || ifmapW <= 0)
        return "bad ifmap dims";
    if (inChannels <= 0)
        return "bad channel count";
    if (kernelH <= 0 || kernelW <= 0)
        return "bad kernel";
    if (stride <= 0)
        return "bad stride";
    if (pad < 0)
        return "bad padding";
    if (!depthwise && filters <= 0)
        return "bad filter count";
    // 64-bit sums: the dims may come from a client request.
    if (ifmapH + 2LL * pad < kernelH || ifmapW + 2LL * pad < kernelW)
        return "kernel does not fit the padded ifmap";
    return nullptr;
}

void
ConvLayer::check() const
{
    const char *why = invalidReason();
    smart_assert(why == nullptr, name, ": ", why);
}

ConvLayer
ConvLayer::conv(const std::string &name, int h, int w, int cin, int m,
                int k, int stride, int pad)
{
    ConvLayer l;
    l.name = name;
    l.ifmapH = h;
    l.ifmapW = w;
    l.inChannels = cin;
    l.filters = m;
    l.kernelH = k;
    l.kernelW = k;
    l.stride = stride;
    l.pad = pad >= 0 ? pad : (k - 1) / 2; // default: 'same' padding
    l.check();
    return l;
}

ConvLayer
ConvLayer::dwConv(const std::string &name, int h, int w, int channels,
                  int k, int stride)
{
    ConvLayer l;
    l.name = name;
    l.ifmapH = h;
    l.ifmapW = w;
    l.inChannels = channels;
    l.filters = channels;
    l.kernelH = k;
    l.kernelW = k;
    l.stride = stride;
    l.pad = (k - 1) / 2;
    l.depthwise = true;
    l.check();
    return l;
}

ConvLayer
ConvLayer::fc(const std::string &name, int in_features, int out_features)
{
    ConvLayer l;
    l.name = name;
    l.ifmapH = 1;
    l.ifmapW = 1;
    l.inChannels = in_features;
    l.filters = out_features;
    l.kernelH = 1;
    l.kernelW = 1;
    l.stride = 1;
    l.pad = 0;
    l.check();
    return l;
}

} // namespace smart::systolic
