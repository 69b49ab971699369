/* Skip-sampled time-to-failure trials on a compiled Pauli frame.
 *
 * This is run_trial(cfg, frame_engine) of montecarlo.py in C: the same
 * draws, in the same order, from the same PCG64 stream that
 * np.random.default_rng(trial_seed(master, point, trial)) gives, so a
 * trial ends on the same cycle.  Each trial is seeded here, by numpy's own
 * SeedSequence hash and PCG64 seeding reproduced word for word, and a call
 * runs a whole block of trials.  Python computes every constant that needs
 * exp or lgamma (montecarlo._kernel_trials); this file only calls log and
 * log1p, the second only where the first cannot certify a clean run's
 * length (clean_run).
 *
 * Each compiled cycle carries two read-only tables, filled once by
 * mfqec_fill_tables when the circuit is packed: the result of every single
 * fault on the clean frame (fresh rows), and of every zero-event cycle on
 * the noiseless orbits those faults start (an open-addressed idle table).
 * A cycle with one event on the clean frame makes its Pauli draw and reads
 * its fresh row; a zero-event cycle reads its idle row when the frame is
 * there.  Neither skips or adds a draw, so the stream is unchanged; every
 * other cycle runs its ops.  The Python loop reads the same tables, and
 * _FrameEngine._transition, which runs the ops, is their oracle.
 *
 * A row whose class is RESIDUAL also links to its successor, the other
 * cycle's idle row keyed by its result frame, which the fill always makes:
 * its class word is class | (slot + 1) << 2, slot being that row's index in
 * the other cycle's idle table, and 0 above the class bits means no link.
 * The links are set in one pass once every walk is done, so no table grows
 * after them.  A trial keeps the link of the last row it read, and a
 * zero-event cycle reads the linked row; it probes the idle table only
 * after a cycle that ran its ops (a miss, or events on a residual frame).
 *
 * It also resamples montecarlo.resample_means's bootstraps: from a PCG64
 * state handed over by Python, buffered half-word included, it makes the
 * integers() draws numpy would and sums each resample exactly.  Eight draws
 * at a time come from four words computed at once by the LCG's jump ahead;
 * a block in which any draw would have entered numpy's rejection test is
 * dropped for one draw made as numpy makes it (mfqec_resample_sums).
 *
 * Built by mfqec/kernel.py with -O2 -ffp-contract=off and no fast-math, so
 * that every double is rounded as Python rounds it.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef __uint128_t u128;

/* numpy's PCG64: a 128-bit LCG stepped before each output, XSL-RR output,
 * and next_uint32 serving the high half of a word on the following call. */
typedef struct {
    u128 state, inc;
    uint32_t half;
    int has_half;
} pcg64_t;

#define PCG64_MULTIPLIER \
    (((u128)0x2360ED051FC65DA4ULL << 64) | (u128)0x4385DF649FCCF645ULL)

static void pcg64_init(pcg64_t *rng, uint64_t state_hi, uint64_t state_lo,
                       uint64_t inc_hi, uint64_t inc_lo)
{
    rng->state = (u128)state_hi << 64 | state_lo;
    rng->inc = (u128)inc_hi << 64 | inc_lo;
    rng->half = 0;
    rng->has_half = 0;
}

static inline void pcg64_step(pcg64_t *rng)
{
    rng->state = rng->state * PCG64_MULTIPLIER + rng->inc;
}

/* XSL-RR: the output word of a stepped state. */
static inline uint64_t xsl_rr(u128 state)
{
    uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

static inline uint64_t next_uint64(pcg64_t *rng)
{
    pcg64_step(rng);
    return xsl_rr(rng->state);
}

/* numpy's SeedSequence on uint32 words: hashmix/mix into a pool of four
 * words, then generate_state. */
#define SS_POOL 4
#define SS_INIT_A 0x43b0d7e5U
#define SS_MULT_A 0x931e8875U
#define SS_INIT_B 0x8b51f9ddU
#define SS_MULT_B 0x58f38dedU
#define SS_MIX_L 0xca01f9ddU
#define SS_MIX_R 0x4973f715U

static inline uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ value >> 16;
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = SS_MIX_L * x - SS_MIX_R * y;
    return result ^ result >> 16;
}

/* SeedSequence(entropy).pool: the first four words (zeros past the end)
 * hashed in, every word mixed into every other, then any further words
 * mixed into each. */
static void mix_entropy(const uint32_t *entropy, int64_t n, uint32_t pool[SS_POOL])
{
    uint32_t hash_const = SS_INIT_A;
    for (int i = 0; i < SS_POOL; i++)
        pool[i] = hashmix(i < n ? entropy[i] : 0, &hash_const);
    for (int src = 0; src < SS_POOL; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int64_t src = SS_POOL; src < n; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash_const));
}

/* SeedSequence.generate_state(n_words, uint32) from its pool. */
static void generate_state(const uint32_t pool[SS_POOL], int64_t n_words, uint32_t *out)
{
    uint32_t hash_const = SS_INIT_B;
    for (int64_t i = 0; i < n_words; i++) {
        uint32_t value = pool[i % SS_POOL] ^ hash_const;
        hash_const *= SS_MULT_B;
        value *= hash_const;
        out[i] = value ^ value >> 16;
    }
}

/* The uint32 words SeedSequence makes of a non-negative integer: low word
 * first, one word for a value below 2**32 (zero included).  Returns the
 * count. */
static inline int64_t int_words(uint64_t value, uint32_t *out)
{
    out[0] = (uint32_t)value;
    out[1] = (uint32_t)(value >> 32);
    return out[1] ? 2 : 1;
}

/* generate_state's uint64 value from the word pair (low, high) at w. */
static inline uint64_t word_pair(const uint32_t *w)
{
    return (uint64_t)w[1] << 32 | w[0];
}

/* PCG64(seed) for an integer seed: SeedSequence(seed).generate_state(4,
 * uint64) gives (state high, state low, inc high, inc low), and numpy's
 * pcg64_set_seed starts from state 0 and inc = initseq << 1 | 1, steps,
 * adds initstate to the state, and steps again. */
static void pcg64_seed(pcg64_t *rng, uint64_t seed)
{
    uint32_t entropy[2], pool[SS_POOL], w[8];
    mix_entropy(entropy, int_words(seed, entropy), pool);
    generate_state(pool, 8, w);
    pcg64_init(rng, 0, 0, word_pair(w + 4), word_pair(w + 6));
    rng->inc = rng->inc << 1 | 1;
    pcg64_step(rng);
    rng->state += (u128)word_pair(w) << 64 | word_pair(w + 2);
    pcg64_step(rng);
}

/* The generator of trial `index`, PCG64(trial_seed(master, point, index)):
 * `entropy` holds the words of master and point (n_prefix of them) and
 * room for two more, the words of the index. */
static void trial_rng(pcg64_t *rng, uint32_t *entropy, int64_t n_prefix, uint64_t index)
{
    uint32_t pool[SS_POOL], w[2];
    mix_entropy(entropy, n_prefix + int_words(index, entropy + n_prefix), pool);
    generate_state(pool, 2, w);
    pcg64_seed(rng, word_pair(w));
}

/* Generator.random(): the top 53 bits of a word; the buffered half stays. */
static inline double next_double(pcg64_t *rng)
{
    return (double)(next_uint64(rng) >> 11) * (1.0 / 9007199254740992.0);
}

static inline uint32_t next_uint32(pcg64_t *rng)
{
    if (rng->has_half) {
        rng->has_half = 0;
        return rng->half;
    }
    uint64_t word = next_uint64(rng);
    rng->half = (uint32_t)(word >> 32);
    rng->has_half = 1;
    return (uint32_t)word;
}

/* Generator.integers(n) for 1 <= n <= 2**32: Lemire's bounded draw on
 * next_uint32; a range of one value draws nothing. */
static inline uint32_t bounded(pcg64_t *rng, uint64_t n)
{
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)next_uint32(rng) * n;
    if ((m & 0xFFFFFFFFULL) < n) {
        uint64_t threshold = (0x100000000ULL - n) % n;
        while ((m & 0xFFFFFFFFULL) < threshold)
            m = (uint64_t)next_uint32(rng) * n;
    }
    return (uint32_t)(m >> 32);
}

/* Per-(p, N) constants, computed in Python. */
typedef struct {
    double log_clean;        /* N·log1p(-p): log P(a cycle has no error) */
    const double *count_cdf; /* N entries: CDF of the error count given >= 1 */
    double bin_p, bin_q, bin_qn; /* inversion at p' = min(p, 1-p): p', 1-p', (1-p')**N */
    int64_t bin_bound;       /* numpy's inversion bound */
    int64_t bin_reflect;     /* 1 when p > 0.5: the count is N - inversion */
} rate_t;

/* Generator.binomial(N, p) by numpy's inversion, reflected for p > 0.5. */
static int64_t binomial(pcg64_t *rng, int64_t n, const rate_t *r)
{
    const double p = r->bin_p, q = r->bin_q, qn = r->bin_qn;
    int64_t x = 0;
    double px = qn;
    double u = next_double(rng);
    while (u > px) {
        x++;
        if (x > r->bin_bound) {
            x = 0;
            px = qn;
            u = next_double(rng);
        } else {
            u -= px;
            px = ((double)(n - x + 1) * p * px) / ((double)x * q);
        }
    }
    return r->bin_reflect ? n - x : x;
}

/* One cycle (a or b) compiled for the frame, as _FrameEngine._compile, and
 * its tables (mfqec_fill_tables). */
enum { OP_H, OP_CNOT, OP_TOFX, OP_TOFZ, OP_RESET };
enum { CH_MEMORY, CH_TWO_QUBIT, CH_THREE_QUBIT, CH_INIT };

/* Non-identity Paulis of each channel's sites, as ErrorSite.n_paulis; an
 * init site has one, X. */
static const uint64_t CHANNEL_PAULIS[] = {3, 15, 63, 1};

typedef struct {
    int64_t n_ops;
    const uint64_t *ops;   /* n_ops rows (opcode, mask, mask, mask) */
    const uint64_t *sites; /* N rows (ops before its event, channel, 3 qubit masks) */
    int64_t n_fresh;       /* the sites' Pauli counts summed */
    uint64_t *fresh;       /* n_fresh rows (fx', fz', class word) */
    int64_t *fresh_base;   /* N entries: the fresh row of each site's Pauli 1 */
    int64_t idle_mask;     /* idle slots less one, the slots a power of two */
    uint64_t *idle;        /* rows (fx, fz, fx', fz', class word); fx = fz = 0 is empty */
    int64_t n_idle;        /* idle rows in use */
} cycle_t;

#define OP_ROW 4
#define SITE_ROW 5
#define FRESH_ROW 3
#define IDLE_ROW 5

typedef struct {
    cycle_t cycle[2];      /* a, b */
    int64_t n_sites;       /* N, the same in both cycles */
    int64_t n_gens;
    const uint64_t *gens;  /* n_gens rows (x mask, z mask) */
    uint64_t zl_mask, nondata_mask;
} circuit_t;

/* Classification, as montecarlo.Classification: the low two bits of a
 * row's class word, whose higher bits hold the row's link (LINK_SHIFT). */
enum { CLEAN_ZERO, LOGICAL_FLIP, RESIDUAL };
#define CLASS_MASK 3
#define LINK_SHIFT 2

static void exec_ops(const uint64_t *op, const uint64_t *end,
                     uint64_t *fx_, uint64_t *fz_)
{
    uint64_t fx = *fx_, fz = *fz_;
    if (!(fx | fz))
        return; /* no op changes the all-zero frame */
    for (; op < end; op += OP_ROW) {
        switch (op[0]) {
        case OP_CNOT:
            if (fx & op[1])
                fx ^= op[2];
            if (fz & op[2])
                fz ^= op[1];
            break;
        case OP_TOFX:
            if ((fx & op[1]) && (fx & op[2]))
                fx ^= op[3];
            break;
        case OP_TOFZ:
            if ((fx & op[1]) && (fx & op[2]))
                fz ^= op[3];
            break;
        case OP_RESET:
            fx &= ~op[1];
            fz &= ~op[1];
            break;
        default: /* OP_H: swap the two frame bits on the qubit */
            if (!(fx & op[1]) != !(fz & op[1])) {
                fx ^= op[1];
                fz ^= op[1];
            }
        }
    }
    *fx_ = fx;
    *fz_ = fz;
}

static int classify(const circuit_t *c, uint64_t fx, uint64_t fz)
{
    for (int64_t i = 0; i < c->n_gens; i++) {
        const uint64_t *g = c->gens + 2 * i;
        if (__builtin_parityll((g[0] & fz) ^ (g[1] & fx)))
            return RESIDUAL;
    }
    if (__builtin_parityll(c->zl_mask & fx))
        return LOGICAL_FLIP;
    if (fx & c->nondata_mask)
        return RESIDUAL;
    return CLEAN_ZERO;
}

/* Base-4 Pauli letters I, X, Y, Z = 0..3 onto the frame bits of a qubit. */
static inline void apply_letter(unsigned letter, uint64_t mask,
                                uint64_t *fx, uint64_t *fz)
{
    if (letter == 1 || letter == 2)
        *fx ^= mask;
    if (letter == 2 || letter == 3)
        *fz ^= mask;
}

/* A site's Pauli as errors.draw_event_paulis draws it: the base-4 index of
 * its letters, first qubit most significant, 1 to CHANNEL_PAULIS[channel].
 * integers(1) draws nothing, so an init site's X takes no draw. */
static inline unsigned draw_pauli(pcg64_t *rng, const uint64_t *site)
{
    return 1 + bounded(rng, CHANNEL_PAULIS[site[1]]);
}

/* The Pauli of base-4 index idx onto the frame bits of a site's qubits. */
static inline void apply_pauli(const uint64_t *site, unsigned idx,
                               uint64_t *fx, uint64_t *fz)
{
    switch (site[1]) {
    case CH_TWO_QUBIT:
        apply_letter(idx >> 2, site[2], fx, fz);
        apply_letter(idx & 3, site[3], fx, fz);
        break;
    case CH_THREE_QUBIT:
        apply_letter(idx >> 4, site[2], fx, fz);
        apply_letter((idx >> 2) & 3, site[3], fx, fz);
        apply_letter(idx & 3, site[4], fx, fz);
        break;
    default: /* CH_MEMORY, CH_INIT: one qubit */
        apply_letter(idx, site[2], fx, fz);
    }
}

/* Cycle cy's ops from op `done` on, then the frame's class; a clean frame
 * is the same quantum state as the zero frame, so it becomes zero. */
static int finish_cycle(const circuit_t *c, const cycle_t *cy, int64_t done,
                        uint64_t *fx, uint64_t *fz)
{
    exec_ops(cy->ops + OP_ROW * done, cy->ops + OP_ROW * cy->n_ops, fx, fz);
    int cls = classify(c, *fx, *fz);
    if (cls == CLEAN_ZERO)
        *fx = *fz = 0;
    return cls;
}

/* The idle row of frame (fx, fz), or the empty row where it would go:
 * linear probing from a multiplicative hash.  A residual frame is never
 * zero, so (0, 0) marks an empty row; the zero frame finds an empty row.
 * A trial probes only where it holds no link: on the first zero-event
 * cycle after a cycle that ran its ops. */
static inline uint64_t *idle_row(const cycle_t *cy, uint64_t fx, uint64_t fz)
{
    uint64_t h = (fx ^ fz * 0x9E3779B97F4A7C15ULL) * 0xBF58476D1CE4E5B9ULL;
    uint64_t i = h >> 32, mask = (uint64_t)cy->idle_mask;
    for (;; i++) {
        uint64_t *row = cy->idle + IDLE_ROW * (i & mask);
        if (!(row[0] | row[1]) || (row[0] == fx && row[1] == fz))
            return row;
    }
}

/* Draw k distinct sites of n, ascending, as montecarlo._choose_sites:
 * Floyd's algorithm, then the k-1 draws numpy's choice spends on its
 * shuffle.  `mark` is n zero bytes and is left zero. */
static void choose_sites(pcg64_t *rng, int64_t n, int64_t k, int64_t *out,
                         unsigned char *mark)
{
    if (k == 1) { /* Floyd's one draw, integers(n), and no shuffle */
        out[0] = bounded(rng, (uint64_t)n);
        return;
    }
    for (int64_t j = n - k, m = 0; j < n; j++, m++) {
        int64_t v = bounded(rng, (uint64_t)j + 1);
        if (mark[v])
            v = j;
        mark[v] = 1;
        /* insertion into the ascending prefix out[0..m) */
        int64_t i = m;
        while (i > 0 && out[i - 1] > v) {
            out[i] = out[i - 1];
            i--;
        }
        out[i] = v;
    }
    for (int64_t i = k; i > 1; i--)
        bounded(rng, (uint64_t)i);
    for (int64_t i = 0; i < k; i++)
        mark[out[i]] = 0;
}

/* One cycle of cycle s from frame (fx, fz) with k errors, their Paulis
 * drawn in site order as montecarlo._draw_cycle_events draws them.  One
 * error on the clean frame reads its fresh row after its draw, and no
 * error reads the frame's idle row when it has one: the row *link points
 * to when it is not NULL, else the row idle_row finds.  *link becomes the
 * link of the row read, or NULL when the cycle ran its ops. */
static int run_cycle(const circuit_t *c, int s, pcg64_t *rng,
                     const int64_t *chosen, int64_t k,
                     uint64_t *fx, uint64_t *fz, const uint64_t **link)
{
    const cycle_t *cy = &c->cycle[s];
    const uint64_t *row;
    if (k == 0) {
        row = *link;
        if (!row) {
            row = idle_row(cy, *fx, *fz);
            if (!(row[0] | row[1]))
                return finish_cycle(c, cy, 0, fx, fz);
        }
        row += 2; /* past the key: (fx', fz', class word), as a fresh row */
    } else if (k == 1 && !(*fx | *fz)) {
        unsigned idx = draw_pauli(rng, cy->sites + SITE_ROW * chosen[0]);
        row = cy->fresh + FRESH_ROW * (cy->fresh_base[chosen[0]] + idx - 1);
    } else {
        int64_t done = 0;
        for (int64_t e = 0; e < k; e++) {
            const uint64_t *site = cy->sites + SITE_ROW * chosen[e];
            int64_t upto = (int64_t)site[0];
            exec_ops(cy->ops + OP_ROW * done, cy->ops + OP_ROW * upto, fx, fz);
            done = upto;
            apply_pauli(site, draw_pauli(rng, site), fx, fz);
        }
        *link = NULL;
        return finish_cycle(c, cy, done, fx, fz);
    }
    *fx = row[0];
    *fz = row[1];
    const uint64_t slot = row[2] >> LINK_SHIFT;
    *link = slot ? c->cycle[s ^ 1].idle + IDLE_ROW * (slot - 1) : NULL;
    return (int)(row[2] & CLASS_MASK);
}

/* errors.sample_clean_run_length's floor(log1p(-u) / log_clean) from its
 * draw u, as a double; inv is 1 / log_clean.
 *
 * u = k·2**-53, so 1 - u is exact, and log(1 - u) and log1p(-u) are each
 * within an ulp or two of the same real number.  So y = log(1 - u) · inv is
 * within 8·2**-53, relative, of the quotient Python floors: two libm
 * results and three roundings (the quotient's, inv's and the product's).
 * When y·(1 - 2**-40) and y·(1 + 2**-40) truncate to the same integer m,
 * that interval, 1000 times wider, holds the quotient too, so its floor is
 * m.  The 0 <= y < 2**62 test first keeps the truncations defined and sends
 * NaN and ±inf on (a zero or subnormal log_clean, whose inverse overflows).
 * Otherwise, on a u whose quotient is within 2**-40 of an integer, relative,
 * the quotient itself is computed, as it always was: a share of about
 * 2**-39 times the mean run length of all draws.  *fallbacks, when not
 * NULL, counts those. */
static inline double clean_run(double u, const rate_t *r, double inv,
                               int64_t *fallbacks)
{
    double y = log(1.0 - u) * inv;
    if (y >= 0.0 && y < 0x1p62) {
        int64_t lo = (int64_t)(y * (1.0 - 0x1p-40));
        if (lo == (int64_t)(y * (1.0 + 0x1p-40)))
            return (double)lo;
    }
    if (fallbacks)
        ++*fallbacks;
    return floor(log1p(-u) / r->log_clean);
}

/* errors.sample_error_count_given_any from its draw u: bisect_right of u
 * in the n entries of count_cdf, plus one.  bisect_right is 0, one error,
 * exactly when u < count_cdf[0]: a share count_cdf[0] of noisy cycles,
 * 0.986 at surface17's benchmark rates and 0.51-0.94 on bf's sweep grid. */
static inline int64_t error_count(double u, const rate_t *r, int64_t n)
{
    if (u < r->count_cdf[0])
        return 1;
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (u < r->count_cdf[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo + 1;
}

/* One trial from `rng`, inv being 1 / r->log_clean.  Returns the cycle of
 * the logical flip (>= 1), or 0 when the trial reaches max_cycles first
 * (censored). */
static int64_t skip_trial(const circuit_t *c, const rate_t *r, double inv,
                          int64_t max_cycles, pcg64_t *rng)
{
    const int64_t n = c->n_sites;
    int64_t chosen[n];      /* 9·N bytes of stack: 6 kB at surface17's N = 675 */
    unsigned char mark[n];
    uint64_t fx = 0, fz = 0;
    const uint64_t *link = NULL; /* the next zero-event cycle's idle row */
    int64_t t = 0;
    int clean = 1;

    memset(mark, 0, (size_t)n);
    while (t < max_cycles) {
        int64_t k;
        if (clean) {
            double run = clean_run(next_double(rng), r, inv, NULL);
            if (run >= 9223372036854775808.0 || (int64_t)run >= max_cycles - t)
                break;
            t += (int64_t)run;
            k = error_count(next_double(rng), r, n);
        } else {
            k = binomial(rng, n, r);
        }
        if (k)
            choose_sites(rng, n, k, chosen, mark);
        int cls = run_cycle(c, (int)(t & 1), rng, chosen, k, &fx, &fz, &link);
        t++;
        if (cls == LOGICAL_FLIP)
            return t;
        clean = cls == CLEAN_ZERO;
    }
    return 0;
}

/* Trials indices[0..n) of a point, each seeded as
 * PCG64(trial_seed(master, point, index)) from `prefix`, the n_prefix
 * SeedSequence words of master and point; out[i] is trial i's cycle of
 * failure, or 0 when censored. */
void mfqec_skip_block(const circuit_t *c, const rate_t *r, int64_t max_cycles,
                      const uint32_t *prefix, int64_t n_prefix,
                      const uint64_t *indices, int64_t n, int64_t *out)
{
    uint32_t entropy[n_prefix + 2];
    const double inv = 1.0 / r->log_clean;
    pcg64_t rng;

    memcpy(entropy, prefix, sizeof(uint32_t) * (size_t)n_prefix);
    for (int64_t i = 0; i < n; i++) {
        trial_rng(&rng, entropy, n_prefix, indices[i]);
        out[i] = skip_trial(c, r, inv, max_cycles, &rng);
    }
}

/* Where mfqec_fill_tables gets a larger idle table: given a cycle and a
 * slot count, the address of slots * IDLE_ROW words that outlive the fill,
 * or NULL. */
typedef uint64_t *(*grow_idle_fn)(int64_t cycle, int64_t slots);

/* Move cycle s's idle rows into a table of twice the slots from `grow`.
 * Returns 0, or -1 when `grow` gave none. */
static int grow_idle(cycle_t *cy, int s, grow_idle_fn grow)
{
    const uint64_t *old = cy->idle;
    const int64_t slots = cy->idle_mask + 1;
    uint64_t *idle = grow(s, 2 * slots);
    if (!idle)
        return -1;
    memset(idle, 0, sizeof(uint64_t) * IDLE_ROW * (size_t)(2 * slots));
    cy->idle = idle;
    cy->idle_mask = 2 * slots - 1;
    for (const uint64_t *row = old; row < old + IDLE_ROW * slots; row += IDLE_ROW)
        if (row[0] | row[1])
            memcpy(idle_row(cy, row[0], row[1]), row, sizeof(uint64_t) * IDLE_ROW);
    return 0;
}

/* Link each RESIDUAL row of `rows` (n of them, `width` words apart, each
 * viewed from its result: fx', fz', class word) to `next`'s idle row of its
 * result frame, which the walks made. */
static void link_rows(uint64_t *rows, int64_t n, int64_t width, const cycle_t *next)
{
    for (uint64_t *row = rows; row < rows + width * n; row += width) {
        if (row[2] != RESIDUAL)
            continue;
        const uint64_t *to = idle_row(next, row[0], row[1]);
        if (to[0] | to[1])
            row[2] |= (uint64_t)((to - next->idle) / IDLE_ROW + 1) << LINK_SHIFT;
    }
}

/* Fill both cycles' tables.  Python allocates them: cycle s's fresh rows
 * (n_fresh of them), its fresh_base and idle_mask + 1 idle rows to start
 * from.  For every single fault (site, Pauli) of a cycle, its fresh row is
 * the cycle from the clean frame with that event.  While the result is
 * residual, the noiseless orbit after it is walked: the other cycle, then
 * the first, and so on, each zero-event cycle an idle row, until the frame
 * is clean or flipped or its (cycle, frame) row is already there, whose
 * orbit then is too.  An idle table whose rows would pass half its slots
 * moves to a table twice its size from `grow`, and the walk goes on, so
 * every row is made once.  Then, with every table at its final size, each
 * residual fresh and idle row gets its link (link_rows).  Returns 0; -1
 * when a cycle's sites' Pauli counts do not sum to its n_fresh; -2 when
 * `grow` gave no table. */
int64_t mfqec_fill_tables(circuit_t *c, grow_idle_fn grow)
{
    for (int s = 0; s < 2; s++) {
        cycle_t *cy = &c->cycle[s];
        int64_t rows = 0;
        for (int64_t i = 0; i < c->n_sites; i++) {
            cy->fresh_base[i] = rows;
            rows += (int64_t)CHANNEL_PAULIS[cy->sites[SITE_ROW * i + 1]];
        }
        if (rows != cy->n_fresh)
            return -1;
        memset(cy->idle, 0, sizeof(uint64_t) * IDLE_ROW * (size_t)(cy->idle_mask + 1));
        cy->n_idle = 0;
    }
    for (int s = 0; s < 2; s++) {
        const cycle_t *cy = &c->cycle[s];
        for (int64_t i = 0; i < c->n_sites; i++) {
            const uint64_t *site = cy->sites + SITE_ROW * i;
            for (unsigned idx = 1; idx <= CHANNEL_PAULIS[site[1]]; idx++) {
                uint64_t fx = 0, fz = 0;
                apply_pauli(site, idx, &fx, &fz);
                int cls = finish_cycle(c, cy, (int64_t)site[0], &fx, &fz);
                uint64_t *row = cy->fresh + FRESH_ROW * (cy->fresh_base[i] + idx - 1);
                row[0] = fx;
                row[1] = fz;
                row[2] = (uint64_t)cls;
                for (int at = s; cls == RESIDUAL;) {
                    cycle_t *next = &c->cycle[at ^= 1];
                    row = idle_row(next, fx, fz);
                    if (row[0] | row[1])
                        break;
                    if (2 * (next->n_idle + 1) > next->idle_mask + 1) {
                        if (grow_idle(next, at, grow) < 0)
                            return -2;
                        row = idle_row(next, fx, fz);
                    }
                    next->n_idle++;
                    row[0] = fx;
                    row[1] = fz;
                    cls = finish_cycle(c, next, 0, &fx, &fz);
                    row[2] = fx;
                    row[3] = fz;
                    row[4] = (uint64_t)cls;
                }
            }
        }
    }
    for (int s = 0; s < 2; s++) {
        cycle_t *cy = &c->cycle[s];
        link_rows(cy->fresh, cy->n_fresh, FRESH_ROW, &c->cycle[s ^ 1]);
        link_rows(cy->idle + 2, cy->idle_mask + 1, IDLE_ROW, &c->cycle[s ^ 1]);
    }
    return 0;
}

static void state_words(const pcg64_t *rng, uint64_t *out)
{
    out[0] = (uint64_t)(rng->state >> 64);
    out[1] = (uint64_t)rng->state;
    out[2] = (uint64_t)(rng->inc >> 64);
    out[3] = (uint64_t)rng->inc;
}

/* Bootstrap resampling, as montecarlo.resample_means: `state` is a PCG64
 * state as six words (state high, state low, inc high, inc low, buffered
 * half-word, its flag), read and then overwritten with the final state.
 * For each of n_resamples resamples and each set j in order (sizes[j]
 * values, the sets concatenated in `values`), draw sizes[j] indices by
 * integers(sizes[j]) and write the sum of the picked values to
 * out[r * n_sets + j].
 *
 * With no half-word buffered and at least 8 draws left in the set, the next
 * 4 words come at once from the LCG's jump ahead, s·A^k + c_k for k = 1..4
 * (A^k and c_k made once per call), so that their multiplies do not wait on
 * each other; as Lemire draws, low half then high half, they are the set's
 * next 8 draws.  The block is kept only when none of its 8 low products is
 * below n, so that no draw of it would have entered numpy's rejection test;
 * otherwise it is dropped and bounded() makes one draw, rejections and
 * buffered half as numpy makes them. */
void mfqec_resample_sums(uint64_t *state, const int64_t *values, const int64_t *sizes,
                         int64_t n_sets, int64_t n_resamples, int64_t *out)
{
    pcg64_t rng;
    pcg64_init(&rng, state[0], state[1], state[2], state[3]);
    rng.half = (uint32_t)state[4];
    rng.has_half = (int)state[5];
    const u128 a1 = PCG64_MULTIPLIER, a2 = a1 * a1, a3 = a2 * a1, a4 = a3 * a1;
    const u128 c1 = rng.inc, c2 = c1 * a1 + c1, c3 = c2 * a1 + c1, c4 = c3 * a1 + c1;
    for (int64_t r = 0; r < n_resamples; r++) {
        const int64_t *set = values;
        for (int64_t j = 0; j < n_sets; j++) {
            const int64_t n = sizes[j];
            const uint64_t un = (uint64_t)n;
            int64_t sum = 0, i = 0;
            while (i < n) {
                if (!rng.has_half && n - i >= 8) {
                    const u128 s = rng.state, s4 = s * a4 + c4;
                    const uint64_t w1 = xsl_rr(s * a1 + c1), w2 = xsl_rr(s * a2 + c2),
                                   w3 = xsl_rr(s * a3 + c3), w4 = xsl_rr(s4);
                    const uint64_t m0 = (w1 & 0xFFFFFFFFULL) * un, m1 = (w1 >> 32) * un,
                                   m2 = (w2 & 0xFFFFFFFFULL) * un, m3 = (w2 >> 32) * un,
                                   m4 = (w3 & 0xFFFFFFFFULL) * un, m5 = (w3 >> 32) * un,
                                   m6 = (w4 & 0xFFFFFFFFULL) * un, m7 = (w4 >> 32) * un;
                    if (((uint32_t)m0 >= un) & ((uint32_t)m1 >= un) & ((uint32_t)m2 >= un)
                        & ((uint32_t)m3 >= un) & ((uint32_t)m4 >= un)
                        & ((uint32_t)m5 >= un) & ((uint32_t)m6 >= un)
                        & ((uint32_t)m7 >= un)) {
                        sum += set[m0 >> 32] + set[m1 >> 32] + set[m2 >> 32]
                               + set[m3 >> 32] + set[m4 >> 32] + set[m5 >> 32]
                               + set[m6 >> 32] + set[m7 >> 32];
                        rng.state = s4;
                        rng.half = (uint32_t)(w4 >> 32); /* spent, as numpy leaves it */
                        i += 8;
                        continue;
                    }
                }
                sum += set[bounded(&rng, un)];
                i++;
            }
            *out++ = sum;
            set += n;
        }
    }
    state_words(&rng, state);
    state[4] = rng.half;
    state[5] = (uint64_t)rng.has_half;
}

/* Test hook: from a PCG64 state, make the draws of `program`, writing each
 * value to `out`: -2 is random(), -1 is binomial(n, p) at the constants of
 * `r`, and v >= 1 is integers(v). */
void mfqec_draws(uint64_t state_hi, uint64_t state_lo, uint64_t inc_hi,
                 uint64_t inc_lo, const rate_t *r, int64_t n,
                 const int64_t *program, int64_t n_draws, double *out)
{
    pcg64_t rng;
    pcg64_init(&rng, state_hi, state_lo, inc_hi, inc_lo);
    for (int64_t i = 0; i < n_draws; i++) {
        if (program[i] == -2)
            out[i] = next_double(&rng);
        else if (program[i] == -1)
            out[i] = (double)binomial(&rng, n, r);
        else
            out[i] = (double)bounded(&rng, (uint64_t)program[i]);
    }
}

/* Test hook: for each of the m draws us[i], the clean run length skip_trial
 * takes from it (runs[i], clean_run's double) and the error count
 * (counts[i]), at the constants of `r`, whose count_cdf has n entries.
 * Returns how many run lengths took clean_run's fallback. */
int64_t mfqec_clean_draws(const rate_t *r, int64_t n, const double *us, int64_t m,
                          double *runs, int64_t *counts)
{
    const double inv = 1.0 / r->log_clean;
    int64_t fallbacks = 0;
    for (int64_t i = 0; i < m; i++) {
        runs[i] = clean_run(us[i], r, inv, &fallbacks);
        counts[i] = error_count(us[i], r, n);
    }
    return fallbacks;
}

/* Test hook: SeedSequence(entropy).generate_state(n_words, uint32). */
void mfqec_seed_state(const uint32_t *entropy, int64_t n, int64_t n_words, uint32_t *out)
{
    uint32_t pool[SS_POOL];
    mix_entropy(entropy, n, pool);
    generate_state(pool, n_words, out);
}

/* Test hook: the state of PCG64(seed) as (state high, state low, inc high,
 * inc low). */
void mfqec_pcg64_state(uint64_t seed, uint64_t *out)
{
    pcg64_t rng;
    pcg64_seed(&rng, seed);
    state_words(&rng, out);
}

/* Test hook: the generator states mfqec_skip_block starts its trials from,
 * four words per trial as mfqec_pcg64_state gives them. */
void mfqec_trial_states(const uint32_t *prefix, int64_t n_prefix,
                        const uint64_t *indices, int64_t n, uint64_t *out)
{
    uint32_t entropy[n_prefix + 2];
    pcg64_t rng;

    memcpy(entropy, prefix, sizeof(uint32_t) * (size_t)n_prefix);
    for (int64_t i = 0; i < n; i++) {
        trial_rng(&rng, entropy, n_prefix, indices[i]);
        state_words(&rng, out + 4 * i);
    }
}
