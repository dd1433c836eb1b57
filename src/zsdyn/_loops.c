/* The dynamics' step loop, the matrix-game simplex and the matrix-game gap
   scorer, compiled: _core._visbr_steps, ops._simplex_max and
   metrics.matrix_gaps on C doubles. A matrix game runs in the step loop as
   a one-state stochastic game with gamma = 0.

   The step loop runs steps k0..k1-1 in place on C-contiguous arrays, and
   draws its own uniforms and rates: each player's, and at S > 1 the
   environment's, next uniform from the trajectory's PCG64 streams, and the
   rates alpha / (k + h) and beta / (k + h) of a diminishing schedule, or
   alpha and beta. Every float operation is one that the Python code does, in
   its order, with sums left to right. The bits hold only when this is
   compiled with -ffp-contract=off and without -ffast-math, and exp, log and
   sqrt come from the C library, as math.exp, math.log and math.sqrt do. */
#include <math.h>
#include <stdint.h>

/* numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG stepped before each
   output, whose 64-bit output is the xor of its halves rotated right by its
   top 6 bits; random() is the top 53 bits of an output times 2^-53. A
   stream is 4 words: state and increment, each high word first */
typedef unsigned __int128 u128;

static const u128 PCG_MULT = ((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;

static inline double uniform(u128 *state, u128 inc)
{
    uint64_t x;
    unsigned rot;
    *state = *state * PCG_MULT + inc;
    x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    rot = (unsigned)(*state >> 122);
    x = (x >> rot) | (x << ((64 - rot) & 63));
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

static inline u128 load(const uint64_t *w) { return (u128)w[0] << 64 | w[1]; }

static inline void store(uint64_t *w, u128 x)
{
    w[0] = (uint64_t)(x >> 64);
    w[1] = (uint64_t)x;
}

/* pcg64_set_seed for each of the n streams, in place: of the 4 words of
   SeedSequence.generate_state(4, np.uint64), the last two shifted left and
   made odd become the increment, and the first two, added to the increment
   and stepped once, the state, as pcg64_srandom_r leaves them */
void zsdyn_pcg64_seed(int64_t n, uint64_t *streams)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t *w = streams + 4 * i;
        u128 inc = load(w + 2) << 1 | 1, state = (inc + load(w)) * PCG_MULT + inc;
        store(w, state);
        store(w + 2, inc);
    }
}

/* out[i * m + j]: the j-th of m draws of Generator.random from stream i of n,
   each stream left after its draws */
void zsdyn_uniforms(int64_t n, int64_t m, uint64_t *streams, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        u128 state = load(streams + 4 * i), inc = load(streams + 4 * i + 2);
        for (int64_t j = 0; j < m; j++)
            out[i * m + j] = uniform(&state, inc);
        store(streams + 4 * i, state);
    }
}

/* pick_action(p, u): the count of the partial sums p[0] + ... + p[j],
   j < n - 1, that u passes; p >= 0 keeps them sorted */
static int64_t pick(const double *p, int64_t n, double u)
{
    double acc = 0.0;
    int64_t a = 0;
    for (int64_t j = 0; j < n - 1; j++) {
        acc += p[j];
        a += u >= acc;
    }
    return a;
}

/* t = smoothed_policy(q): the softmax of q / tau, of the l2-normalized q
   when normalize is set, eps-mixed with uniform */
static void target(const double *q, int64_t n, double tau, double eps, int64_t normalize,
                   double *t)
{
    double nrm = 1.0, m, tot = 0.0;
    if (normalize) {
        double sq = 0.0;
        for (int64_t j = 0; j < n; j++)
            sq += q[j] * q[j];
        if (sqrt(sq) > 0.0)
            nrm = sqrt(sq);
    }
    for (int64_t j = 0; j < n; j++)
        t[j] = q[j] / nrm;
    m = t[0];
    for (int64_t j = 1; j < n; j++)
        m = t[j] > m ? t[j] : m;
    for (int64_t j = 0; j < n; j++) {
        t[j] = exp((t[j] - m) / tau);
        tot += t[j];
    }
    for (int64_t j = 0; j < n; j++)
        t[j] = eps / n + (1.0 - eps) * (t[j] / tot);
}

/* B trajectories of one (schedule, K) group on (B * S, .) rows, row
   b * S + s being state s of trajectory b, each trajectory b while
   k < ends[b]; pi and tg have both players' columns, player 1's first.
   Stream i * B + b is player i's (i = 0, 1) or, at S > 1, the
   environment's (i = 2) of trajectory b; a trajectory's streams live in
   locals while it steps and are stored back before the next one. sums[(s *
   n1 + a1) * n2 + a2] holds the S - 1 partial sums of that transition row,
   so at S = 1 the environment is never drawn. A frozen player 2's columns
   of tg equal its columns of pi, and its q stays put. */
void zsdyn_visbr_steps(int64_t k0, int64_t k1, int64_t B, int64_t S, int64_t n1, int64_t n2,
                       int64_t frozen, int64_t normalize, int64_t diminishing, double gamma,
                       double alpha, double beta, double h, double *q1, double *q2, double *v1,
                       double *v2, double *pi, double *tg, int64_t *states, uint64_t *streams,
                       const double *R1, const double *R2, const double *sums,
                       const double *tau, const double *eps, const int64_t *ends)
{
    int64_t n = n1 + n2;
    for (int64_t b = 0; b < B; b++) {
        double *p = pi + b * S * n, *t = tg + b * S * n;
        uint64_t *w1 = streams + 4 * b, *w2 = streams + 4 * (B + b), *we = w2;
        u128 s1 = load(w1), i1 = load(w1 + 2), s2 = load(w2), i2 = load(w2 + 2), se = 0, ie = 0;
        if (S > 1) {
            we = streams + 4 * (2 * B + b);
            se = load(we);
            ie = load(we + 2);
        }
        for (int64_t k = k0; k < k1 && k < ends[b]; k++) {
            int64_t s = states[b], r = b * S + s, a1, a2, next, j1, j2;
            double *x1 = q1 + r * n1, *x2 = q2 + r * n2, al = alpha, be = beta;
            if (diminishing) { /* schedule.rates(k) */
                al = alpha / ((double)k + h);
                be = beta / ((double)k + h);
            }
            for (int64_t j = 0; j < S * n; j++)
                p[j] += be * (t[j] - p[j]);
            a1 = pick(pi + r * n, n1, uniform(&s1, i1));
            a2 = pick(pi + r * n + n1, n2, uniform(&s2, i2));
            j1 = (s * n1 + a1) * n2 + a2;
            j2 = (s * n2 + a2) * n1 + a1;
            next = 0;
            if (S > 1) {
                double u = uniform(&se, ie);
                for (int64_t j = 0; j < S - 1; j++)
                    next += u >= sums[j1 * (S - 1) + j];
            }
            x1[a1] += al * (R1[j1] + gamma * v1[b * S + next] - x1[a1]);
            target(x1, n1, tau[b], eps[b], normalize, tg + r * n);
            if (!frozen) {
                x2[a2] += al * (R2[j2] + gamma * v2[b * S + next] - x2[a2]);
                target(x2, n2, tau[b], eps[b], normalize, tg + r * n + n1);
            }
            states[b] = next;
        }
        store(w1, s1);
        store(w2, s2);
        if (S > 1)
            store(we, se);
    }
}

/* ops._simplex_max(A[k], pivot_eps) for each matrix of the (N, n, m) stack
   A, whose LPs are max 1'z s.t. A[k] z <= 1, z >= 0, on the
   (n + 1, m + n + 1) tableau T and the n basic indices: the slack basis,
   Bland's entering
   column, ties of the ratio test to the smaller basic index, then the pivot
   row divided by the pivot and f times it taken from each row. The pivot
   row goes last, with f = 0.0, as in numpy's outer-product update: it turns
   a -0.0 into 0.0. Writes z (N, m) and the duals y (N, n); returns 0, or 1
   for an unbounded LP and 2 when the pivot budget runs out. */
int64_t zsdyn_game_lps(int64_t N, int64_t n, int64_t m, double pivot_eps, const double *A,
                       double *z, double *y, double *T, int64_t *basis)
{
    int64_t w = m + n + 1, budget = 50 * (n + m) + 1000;
    double *cost = T + n * w;
    for (int64_t k = 0; k < N; k++) {
        int64_t it;
        for (int64_t i = 0; i < n; i++) { /* row i of [A[k] | I | 1] */
            for (int64_t j = 0; j < w; j++)
                T[i * w + j] = j < m ? A[(k * n + i) * m + j] : (j == m + i || j == w - 1);
            basis[i] = m + i;
        }
        for (int64_t j = 0; j < w; j++)
            cost[j] = j < m ? -1.0 : 0.0;
        for (it = 0; it < budget; it++) {
            int64_t enter = -1, leave = -1;
            double best = INFINITY, *p, pivot;
            for (int64_t j = 0; j < m + n && enter < 0; j++)
                if (cost[j] < -pivot_eps)
                    enter = j;
            if (enter < 0)
                break;
            for (int64_t i = 0; i < n; i++) {
                double coef = T[i * w + enter], ratio;
                if (coef > pivot_eps) {
                    ratio = T[i * w + w - 1] / coef;
                    if (ratio < best - 1e-15) {
                        best = ratio;
                        leave = i;
                    } else if (ratio <= best + 1e-15 && leave >= 0 && basis[i] < basis[leave]) {
                        leave = i;
                    }
                }
            }
            if (leave < 0)
                return 1;
            p = T + leave * w;
            pivot = p[enter];
            for (int64_t j = 0; j < w; j++)
                p[j] /= pivot;
            for (int64_t i = 0; i <= n; i++) {
                double *r = T + i * w, f = r[enter];
                if (i != leave)
                    for (int64_t j = 0; j < w; j++)
                        r[j] -= f * p[j];
            }
            for (int64_t j = 0; j < w; j++)
                p[j] -= 0.0 * p[j];
            basis[leave] = enter;
        }
        if (it == budget)
            return 2;
        for (int64_t j = 0; j < m; j++)
            z[k * m + j] = 0.0;
        for (int64_t i = 0; i < n; i++) {
            if (basis[i] < m)
                z[k * m + basis[i]] = T[i * w + w - 1];
            y[k * n + i] = cost[m + i];
        }
    }
    return 0;
}

/* One player's terms of metrics.matrix_gaps for column c: x = R own-major
   (n, no) times the opponent's column of opp (no, N), summed over j in
   order from 0.0, its max m, and then m - own . x into *ng and
   m + tau log(sum exp((x - m) / tau)) - own . x - tau H(own) into *ngtau,
   each added to what they hold. x is the caller's scratch of n doubles. */
static void player_gaps(int64_t N, int64_t n, int64_t no, int64_t c, const double *R,
                        const double *own, const double *opp, double tau, double *x,
                        double *ng, double *ngtau)
{
    double m, total = 0.0, ach = 0.0, h = 0.0;
    for (int64_t a = 0; a < n; a++) {
        x[a] = 0.0 + R[a * no] * opp[c];
        for (int64_t j = 1; j < no; j++)
            x[a] += R[a * no + j] * opp[j * N + c];
    }
    m = x[0]; /* np.max: a NaN wins */
    for (int64_t a = 1; a < n; a++)
        m = x[a] > m || x[a] != x[a] ? x[a] : m;
    for (int64_t a = 0; a < n; a++)
        total += exp((x[a] - m) / tau);
    for (int64_t a = 0; a < n; a++)
        ach += own[a * N + c] * x[a];
    for (int64_t a = 0; a < n; a++) {
        double p = own[a * N + c];
        h += -(p * log(p > 0.0 ? p : 1.0));
    }
    *ng += m - ach;
    *ngtau += m + tau * log(total) - ach - tau * h;
}

/* metrics.matrix_gaps: (ng, ngtau) of each column c of the action-major
   policy stacks pi1 (n1, N) and pi2 (n2, N) at temperature tau[c], player
   1's terms added to 0.0 first, each clamped to 0.0 from below (a NaN too);
   R1 is (n1, n2), R2 (n2, n1), and x the caller's scratch of
   max(n1, n2) doubles. gaps is (2, N): ng, then ngtau. */
void zsdyn_matrix_gaps(int64_t N, int64_t n1, int64_t n2, const double *R1, const double *R2,
                       const double *pi1, const double *pi2, const double *tau, double *gaps,
                       double *x)
{
    for (int64_t c = 0; c < N; c++) {
        double ng = 0.0, ngtau = 0.0;
        player_gaps(N, n1, n2, c, R1, pi1, pi2, tau[c], x, &ng, &ngtau);
        player_gaps(N, n2, n1, c, R2, pi2, pi1, tau[c], x, &ng, &ngtau);
        gaps[c] = ng > 0.0 ? ng : 0.0;
        gaps[N + c] = ngtau > 0.0 ? ngtau : 0.0;
    }
}
