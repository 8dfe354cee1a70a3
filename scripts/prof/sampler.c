/* LD_PRELOAD instruction-pointer sampler for scripts/profile.sh: SIGPROF on
 * CPU time, the interrupted RIP into a preallocated buffer, everything
 * written at exit to $PROF_DIR/samples.<pid> (the executable's
 * /proc/self/maps lines, then one hex address a line). Nothing is linked
 * into or changed in the profiled program. x86-64 Linux only.
 *
 * Resolution: the timer asks for 500 us but fires on the kernel tick —
 * about 250 samples/s at CONFIG_HZ=250, so +-1.5 points on a 4 s run.
 * Accumulate runs for more. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1u << 20)
static unsigned long rip[CAP];
static unsigned n;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    unsigned i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    if (i < CAP) rip[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

static void arm(long usec) {
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    arm(500);
}

__attribute__((destructor)) static void stop(void) {
    char path[4096], exe[4096], line[4096];
    const char *dir = getenv("PROF_DIR");
    arm(0);
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (!dir || len < 0) return;
    exe[len] = 0;
    snprintf(path, sizeof path, "%s/samples.%d", dir, (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps))
        if (strstr(line, exe)) fprintf(out, "map %s", line);
    unsigned kept = n < CAP ? n : CAP;
    for (unsigned i = 0; i < kept; i++) fprintf(out, "%lx\n", rip[i]);
    fclose(maps);
    fclose(out);
}
