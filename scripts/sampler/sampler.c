/* A sampling profiler to load with LD_PRELOAD. ITIMER_PROF sends SIGPROF
 * per slice of the process's CPU time, which needs no hardware counters.
 * Each sample keeps the PC, the word at SP (the return address while a
 * leaf without a frame, such as a libc routine, runs) and the return
 * addresses of the frame-pointer chain. At exit the samples and
 * /proc/self/maps are written to $SAMPLER_OUT.<pid> for report.py.
 *
 * SAMPLER_HZ sets the rate (default 997), SAMPLER_MAX the number of
 * samples kept (default 200000; the rest are counted as dropped). x86-64
 * Linux only. A frame is followed only while it lies above the last one
 * and within 1 MiB of it; code built without frame pointers ends a chain
 * early, or, where it keeps a stack address in RBP, can send it astray. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__)
#error "sampler.c reads x86-64 registers"
#endif

#define DEPTH 60

typedef struct {
    uintptr_t pc, sp_word, depth, frames[DEPTH];
} sample_t;

static sample_t *samples;
static size_t capacity;
static size_t taken;
static long rate;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    const greg_t *regs = ((ucontext_t *)context)->uc_mcontext.gregs;
    size_t at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at >= capacity) return;
    sample_t *s = &samples[at];
    uintptr_t sp = regs[REG_RSP], fp = regs[REG_RBP], low = sp, n = 0;
    s->pc = regs[REG_RIP];
    s->sp_word = *(uintptr_t *)sp;
    while (n < DEPTH && fp >= low && fp - low < (1 << 20) && fp % 8 == 0) {
        s->frames[n++] = ((uintptr_t *)fp)[1];
        low = fp + 16;
        fp = ((uintptr_t *)fp)[0];
    }
    s->depth = n;
}

__attribute__((constructor)) static void start(void) {
    const char *hz = getenv("SAMPLER_HZ"), *max = getenv("SAMPLER_MAX");
    rate = hz ? atol(hz) : 997;
    capacity = max ? strtoul(max, NULL, 10) : 200000;
    samples = mmap(NULL, capacity * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED || rate <= 0) return;
    struct sigaction action = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    struct timeval every = {0, 1000000 / rate};
    struct itimerval timer = {every, every};
    setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (samples == MAP_FAILED || samples == NULL) return;
    const char *out = getenv("SAMPLER_OUT");
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s.%d", out ? out : "sampler", (int)getpid());
    FILE *file = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!file || !maps) return;
    size_t kept = taken < capacity ? taken : capacity;
    fprintf(file, "samples %zu dropped %zu hz %ld\n", kept, taken - kept, rate);
    for (size_t i = 0; i < kept; i++) {
        fprintf(file, "%lx %lx", samples[i].pc, samples[i].sp_word);
        for (uintptr_t f = 0; f < samples[i].depth; f++) fprintf(file, " %lx", samples[i].frames[f]);
        fputc('\n', file);
    }
    fputs("maps\n", file);
    while (fgets(line, sizeof line, maps)) fputs(line, file);
    fclose(maps);
    fclose(file);
}
