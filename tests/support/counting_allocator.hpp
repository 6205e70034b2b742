// Counting replacement of the global operator new/delete.
//
// counting_allocator.cpp defines every replaceable global allocation
// function, so it is compiled into a test binary as one translation unit
// and only into binaries that want it (a program may replace operator new
// once). Every allocation the program makes after that -- the library's,
// the standard library's, the test framework's -- bumps one relaxed atomic
// counter. Suites read it around a probe window: throughput can mask an
// added allocation; the counter cannot.
#pragma once

#include <cstdint>

namespace iobts::testsupport {

/// Global operator new calls, of every form, since program start.
std::uint64_t allocationCount() noexcept;

}  // namespace iobts::testsupport
