/* Process CPU-time clocks, for timing ops in task-clock time. */

#define _POSIX_C_SOURCE 200809L
#include <sys/types.h>
#include <time.h>

#include <caml/fail.h>
#include <caml/mlvalues.h>

/* The CPU-time clock of process [pid], or of this process when [pid] is 0. */
value perfbench_cpu_clock(value pid)
{
  clockid_t clk;
  if (Long_val(pid) == 0) return Val_long(CLOCK_PROCESS_CPUTIME_ID);
  if (clock_getcpuclockid((pid_t)Long_val(pid), &clk) != 0)
    caml_failwith("clock_getcpuclockid");
  return Val_long(clk);
}

/* The reading of clock [clk] in nanoseconds. */
value perfbench_clock_ns(value clk)
{
  struct timespec ts;
  if (clock_gettime((clockid_t)Long_val(clk), &ts) != 0)
    caml_failwith("clock_gettime");
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
