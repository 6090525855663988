/* Peak resident set size of reaped child processes. */
#include <sys/resource.h>
#include <caml/mlvalues.h>

/* ru_maxrss of RUSAGE_CHILDREN, in kilobytes on Linux: the largest peak
   RSS of any waited-for descendant. */
value perfbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}
