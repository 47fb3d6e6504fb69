#include "compiler/memobj.hh"

#include "common/logging.hh"

namespace smart::compiler
{

const char *
objClassName(ObjClass c)
{
    switch (c) {
      case ObjClass::Weight:
        return "alpha";
      case ObjClass::Input:
        return "beta";
      case ObjClass::Output:
        return "gamma";
      case ObjClass::Psum:
        return "delta";
    }
    smart_panic("unknown object class");
}

} // namespace smart::compiler
