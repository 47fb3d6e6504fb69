/**
 * @file
 * Convolutional / fully-connected layer descriptor used by the systolic
 * dataflow model, the trace generator, and the compiler.
 */

#ifndef SMART_SYSTOLIC_LAYER_HH
#define SMART_SYSTOLIC_LAYER_HH

#include <cstdint>
#include <string>

namespace smart::systolic
{

/**
 * One CNN layer. Fully-connected layers are expressed as 1x1
 * convolutions over a 1x1 feature map; depthwise convolutions set
 * depthwise = true and are mapped one channel at a time (SCALE-SIM
 * semantics), which reproduces their poor systolic utilization.
 */
struct ConvLayer
{
    std::string name;
    int ifmapH = 0;     //!< Input feature map height.
    int ifmapW = 0;     //!< Input feature map width.
    int inChannels = 0; //!< Input channels (Cin).
    int filters = 0;    //!< Output channels (M).
    int kernelH = 0;    //!< Kernel height (Rk).
    int kernelW = 0;    //!< Kernel width (Sk).
    int stride = 1;
    int pad = 0;
    bool depthwise = false;

    /** Output feature map height. */
    int ofmapH() const;
    /** Output feature map width. */
    int ofmapW() const;
    /** Output pixels E = ofmapH * ofmapW. */
    std::uint64_t ofmapPixels() const;

    /** im2col window length: Cin*Rk*Sk (Rk*Sk if depthwise). */
    std::uint64_t windowSize() const;

    /** Multiply-accumulate operations for one image. */
    std::uint64_t macs() const;

    /** Input feature map footprint (bytes, int8). */
    std::uint64_t ifmapBytes() const;
    /** Weight footprint (bytes, int8). */
    std::uint64_t weightBytes() const;
    /** Output feature map footprint (bytes, int8). */
    std::uint64_t ofmapBytes() const;

    /** Why the layer is malformed (first failing invariant), or null. */
    const char *invalidReason() const;
    /** Validate invariants; panics on malformed layers. */
    void check() const;

    /** Named constructor for a convolution. */
    static ConvLayer conv(const std::string &name, int h, int w, int cin,
                          int m, int k, int stride = 1, int pad = -1);
    /** Named constructor for a depthwise convolution. */
    static ConvLayer dwConv(const std::string &name, int h, int w,
                            int channels, int k, int stride = 1);
    /** Named constructor for a fully-connected layer. */
    static ConvLayer fc(const std::string &name, int in_features,
                        int out_features);
};

} // namespace smart::systolic

#endif // SMART_SYSTOLIC_LAYER_HH
