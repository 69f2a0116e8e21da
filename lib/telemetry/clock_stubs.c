/* Monotonic clock for the telemetry subsystem.

   CLOCK_MONOTONIC is immune to wall-clock adjustments (NTP slew,
   manual date changes), which matters for the benchmark harness:
   Figure 10 overheads are ratios of measured durations, and a clock
   step mid-run would silently corrupt them.

   Native code calls the unboxed form directly (no allocation, no
   runtime transition); bytecode gets the boxed one. */

#include <time.h>
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t barracuda_monotonic_now_ns(value unit)
{
    struct timespec ts;
    (void)unit;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

CAMLprim value barracuda_monotonic_now_ns_byte(value unit)
{
    return caml_copy_int64(barracuda_monotonic_now_ns(unit));
}
