/* sprof: a flat PC-sampling profiler, loaded into a program with LD_PRELOAD.

     cc -O2 -shared -fPIC -o sprof.so tools/sprof.c
     SPROF_OUT=run.prof LD_PRELOAD=$PWD/sprof.so ./program args...
     sh tools/sprof_report.sh run.prof

   At load time it arms a POSIX timer on CLOCK_MONOTONIC that sends
   SIGPROF to the thread that loaded it (SIGEV_THREAD_ID) 10000 times a
   second. The handler only appends the interrupted program counter to a
   preallocated buffer (room for 2^22 samples, 400 s; later samples are
   counted as dropped). At exit the buffer is sorted and written to
   SPROF_OUT (default sprof.out) as "pc count" lines, after a copy of
   /proc/self/maps that tools/sprof_report.sh uses to resolve the PCs to
   functions.

   Only the thread that loads the library is sampled: the main thread,
   which in an OCaml 5 program is the main domain. Other domains and
   threads are not. A process that execs another program hands the
   preload on, and every process writes to the same SPROF_OUT, so profile
   one process at a time.

   Why not setitimer/ITIMER_PROF (gprof, gprofng): those count the
   process's CPU time, and on some virtual machines that clock is reset
   or barely advances, so almost no samples arrive. A per-thread timer on
   the monotonic clock does not depend on it; for a thread that is busy
   on the CPU, as a simulation is, the two sample the same thing. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

#define HZ 10000L
#define CAP ((size_t)1 << 22)

static uintptr_t *pcs;
static volatile size_t n_pcs;
static volatile size_t dropped;
static timer_t timer;
static int armed;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  ucontext_t *uc = ctx;
#if defined(__x86_64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sprof: unsupported architecture"
#endif
  size_t n = n_pcs;
  if (n < CAP) {
    pcs[n] = pc;
    n_pcs = n + 1;
  } else {
    dropped = dropped + 1;
  }
}

__attribute__((constructor)) static void sprof_start(void) {
  /* Reserved, not committed: only the pages filled count. */
  pcs = mmap(NULL, CAP * sizeof *pcs, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (pcs == MAP_FAILED) {
    perror("sprof: mmap");
    return;
  }
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) {
    perror("sprof: sigaction");
    return;
  }
  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
    perror("sprof: timer_create");
    return;
  }
  struct itimerspec its;
  its.it_interval.tv_sec = 0;
  its.it_interval.tv_nsec = 1000000000L / HZ;
  its.it_value = its.it_interval;
  if (timer_settime(timer, 0, &its, NULL) != 0) {
    perror("sprof: timer_settime");
    timer_delete(timer);
    return;
  }
  armed = 1;
}

static int cmp_pc(const void *a, const void *b) {
  uintptr_t x = *(const uintptr_t *)a, y = *(const uintptr_t *)b;
  return (x > y) - (x < y);
}

__attribute__((destructor)) static void sprof_stop(void) {
  if (!armed) return;
  armed = 0;
  timer_delete(timer);
  signal(SIGPROF, SIG_IGN);
  size_t n = n_pcs;
  const char *path = getenv("SPROF_OUT");
  if (path == NULL || *path == '\0') path = "sprof.out";
  FILE *out = fopen(path, "w");
  if (out == NULL) {
    perror("sprof: fopen");
    return;
  }
  fprintf(out, "sprof 1\nhz %ld\nsamples %zu\ndropped %zu\nmaps\n", HZ, n, (size_t)dropped);
  FILE *maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  fputs("end maps\npcs\n", out);
  qsort(pcs, n, sizeof *pcs, cmp_pc);
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && pcs[j] == pcs[i]) j++;
    fprintf(out, "%lx %zu\n", (unsigned long)pcs[i], j - i);
    i = j;
  }
  fclose(out);
}
