/* Process-wide resource readings the OCaml standard library lacks. */
#include <time.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

/* CPU time of the whole process (all threads), in nanoseconds. */
value servebench_process_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec);
}

/* Peak resident set size of the process, in KiB (Linux ru_maxrss). */
value servebench_max_rss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  getrusage(RUSAGE_SELF, &ru);
  return Val_long(ru.ru_maxrss);
}
