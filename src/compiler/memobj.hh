/**
 * @file
 * Memory objects: the allocation granularity of the SMART compiler
 * (Sec. 4.3). An object is a multi-byte block with consecutive addresses
 * — a weight filter tile, an input-map slice, an output channel, or a
 * PSum tile — attached to one iteration of a layer's fold loop.
 */

#ifndef SMART_COMPILER_MEMOBJ_HH
#define SMART_COMPILER_MEMOBJ_HH

#include <cstdint>

namespace smart::compiler
{

/** The four memory object classes of Table 3. */
enum class ObjClass
{
    Weight, //!< alpha
    Input,  //!< beta
    Output, //!< gamma
    Psum    //!< delta
};

/** Number of object classes. */
constexpr int numObjClasses = 4;

/** Greek letter name used in the paper (alpha/beta/gamma/delta). */
const char *objClassName(ObjClass c);

/** One memory object: a data tile used by one fold iteration. */
struct MemoryObject
{
    ObjClass cls = ObjClass::Input;
    int iteration = 0;          //!< Fold iteration that consumes it.
    std::uint64_t bytes = 0;    //!< Tile footprint.
    std::uint64_t accesses = 0; //!< Port accesses during the iteration.
    bool written = false;       //!< Object is produced (gamma/delta).
};

} // namespace smart::compiler

#endif // SMART_COMPILER_MEMOBJ_HH
