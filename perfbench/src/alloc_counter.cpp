// The replacement operator new/delete that counts heap allocations
// (xdrs::bench::heap_allocs), compiled once into every benchmark program.
#define XDRS_BENCH_ALLOC_COUNTER
#include "bench_util.hpp"
