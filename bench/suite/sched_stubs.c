/* CPU affinity calls behind cpus.ml; no-ops where they do not exist. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#ifdef __linux__
#include <dirent.h>
#include <sched.h>
#include <stdlib.h>
#endif

/* The CPUs this process may run on, ascending. */
value bm_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  int cpus[1024];
  int n = 0;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int i = 0; i < CPU_SETSIZE && n < 1024; i++)
      if (CPU_ISSET(i, &set)) cpus[n++] = i;
#endif
  res = caml_alloc_tuple(n);
  for (int i = 0; i < n; i++) Store_field(res, i, Val_int(cpus[i]));
  CAMLreturn(res);
}

/* Restrict every thread of this process (and the threads they create
   later) to the given CPUs; [true] when all of them were moved. */
value bm_set_cpus(value cpus)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++)
    CPU_SET(Int_val(Field(cpus, i)), &set);
  DIR *d = opendir("/proc/self/task");
  if (d == NULL) return Val_bool(sched_setaffinity(0, sizeof(set), &set) == 0);
  int ok = 1;
  struct dirent *e;
  while ((e = readdir(d)) != NULL) {
    if (e->d_name[0] == '.') continue;
    if (sched_setaffinity((pid_t)atoi(e->d_name), sizeof(set), &set) != 0) ok = 0;
  }
  closedir(d);
  return Val_bool(ok);
#else
  (void)cpus;
  return Val_false;
#endif
}
