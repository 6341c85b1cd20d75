/* A SIGPROF sampler to LD_PRELOAD into a program: every millisecond of CPU
 * time (ITIMER_PROF, all threads; the kernel rounds the interval up to its
 * tick) it records the interrupted instruction pointer, and at exit it
 * writes one "object offset" line per sample to $SPROF_OUT (nothing when
 * it is unset), the offset relative to the object's load base so that
 * addr2line can resolve it in a position-independent executable.
 * Build: cc -O2 -shared -fPIC sprof.c -o sprof.so -ldl */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static uintptr_t samples[MAX_SAMPLES];
static volatile unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (uintptr_t)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction action = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SPROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out)
        return;
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++) {
        Dl_info where;
        if (dladdr((void *)samples[i], &where) && where.dli_fname)
            fprintf(out, "%s %#lx\n", where.dli_fname, (unsigned long)(samples[i] - (uintptr_t)where.dli_fbase));
        else
            fprintf(out, "? %#lx\n", (unsigned long)samples[i]);
    }
    fclose(out);
}
