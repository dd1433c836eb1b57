/* The dynamics' step loop, the matrix-game simplex and the matrix-game gap
   scorer, compiled: _core._visbr_steps, ops._simplex_max and
   metrics.matrix_gaps on C doubles. A matrix game runs in the step loop as
   a one-state stochastic game with gamma = 0.

   The step loop runs steps k0..k1-1 in place on C-contiguous arrays. Step k
   reads the uniforms at column k % w of its (n, w) uniform rows, and the
   rates alpha[k % w] and beta[k % w]. Every float operation is one that the
   Python code does, in its order, with sums left to right. The bits hold
   only when this is compiled with -ffp-contract=off and without -ffast-math,
   and exp, log and sqrt come from the C library, as math.exp, math.log and
   math.sqrt do. */
#include <math.h>
#include <stdint.h>

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

/* B trajectories of one (schedule, K, T) group on (B * S, .) rows, row
   b * S + s being state s of trajectory b, each trajectory b while
   k < ends[b]; pi and tg have both players' columns, player 1's first. u row
   i * B + b is player i's (i = 0, 1) or the environment's (i = 2) of
   trajectory b. sums[(s * n1 + a1) * n2 + a2] holds the S - 1 partial sums
   of that transition row, so at S = 1 the environment's row is never read.
   A frozen player 2's columns of tg equal its columns of pi, and its q stays
   put. */
void zsdyn_visbr_steps(int64_t k0, int64_t k1, int64_t B, int64_t S, int64_t n1, int64_t n2,
                       int64_t w, int64_t frozen, int64_t normalize, double gamma, double *q1,
                       double *q2, double *v1, double *v2, double *pi, double *tg,
                       int64_t *states, const double *R1, const double *R2, const double *sums,
                       const double *tau, const double *eps, const int64_t *ends,
                       const double *u, const double *alpha, const double *beta)
{
    int64_t n = n1 + n2;
    for (int64_t b = 0; b < B; b++) {
        double *p = pi + b * S * n, *t = tg + b * S * n;
        for (int64_t k = k0; k < k1 && k < ends[b]; k++) {
            int64_t c = k % w, s = states[b], r = b * S + s, a1, a2, next, j1, j2;
            double *x1 = q1 + r * n1, *x2 = q2 + r * n2;
            for (int64_t j = 0; j < S * n; j++)
                p[j] += beta[c] * (t[j] - p[j]);
            a1 = pick(pi + r * n, n1, u[b * w + c]);
            a2 = pick(pi + r * n + n1, n2, u[(B + b) * w + c]);
            j1 = (s * n1 + a1) * n2 + a2;
            j2 = (s * n2 + a2) * n1 + a1;
            next = 0;
            for (int64_t j = 0; j < S - 1; j++)
                next += u[(2 * B + b) * w + c] >= sums[j1 * (S - 1) + j];
            x1[a1] += alpha[c] * (R1[j1] + gamma * v1[b * S + next] - x1[a1]);
            target(x1, n1, tau[b], eps[b], normalize, tg + r * n);
            if (!frozen) {
                x2[a2] += alpha[c] * (R2[j2] + gamma * v2[b * S + next] - x2[a2]);
                target(x2, n2, tau[b], eps[b], normalize, tg + r * n + n1);
            }
            states[b] = next;
        }
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
