/* Compiled training hot path, called through ctypes by netsom._core_c.
 *
 * C11 with no Python API. Mirrors netsom._core_py operation for operation:
 * squared distances accumulate one dimension at a time, ties go to the
 * lowest node index, and the update is w += h * (x - w). Build with
 * -ffp-contract=off: fused multiply-adds would round differently from the
 * pure backend. The caller validates shapes, dtypes and indices.
 *
 * netsom_bmu_batch first copies the weights into dim-major order, wt[k*n + i],
 * in the caller's scratch, then finds each row's winner with distances() and
 * scan_min(), the loops netsom_run_steps uses. The kernel starts no threads:
 * netsom._core_c splits a large batch into contiguous row blocks and runs one
 * call per block, each with its own scratch, on threads of its own.
 *
 * netsom_run_steps does less work per step:
 *
 * - It trains a dim-major working copy of the weights, wt[k*n + i], copied
 *   in on entry and back on exit, so the compiler vectorizes across nodes.
 * - The neighbourhood factor depends only on the lattice offset, so
 *   exp(-(dr^2 + dc^2) / (2 sigma^2)) is kept in a table indexed by
 *   (|dr|, |dc|), filled when first needed and cleared whenever sigma
 *   differs from the previous step's. Sigma holds at its end value through
 *   the fine-tuning stage, so most steps call no exp at all.
 * - A tiny factor that cannot change a node's weights is set to 0 before
 *   the update, which avoids slow subnormal products; see
 *   zero_negligible_factors() for why the weights come out the same.
 * - Step t's update pass also sums each updated node's distance to step
 *   t+1's stimulus, so the weights are read and written once per step.
 *   The first search of a call runs on its own; the last step searches its
 *   own stimulus again and discards the distances.
 *
 * A large map's steps run as P parts at once, one call per part, each on a
 * thread that netsom._core_c starts. Part p owns the contiguous nodes
 * [lo, hi) and keeps its own dim-major weights, distances, factors and
 * factor table. At each step it finds the first strict minimum of its own
 * distances, publishes it in its slot and reads every part's slot in part
 * order, keeping a later part's winner only where it is strictly smaller:
 * that is the first strict minimum over all nodes, so every part updates
 * its own nodes around the one winner. With P = 1 no slot is read or
 * written.
 *
 * The results are still those of netsom._core_py's order of operations.
 * Nodes are independent, so swapping the node and dimension loops, or
 * giving the nodes to different parts, changes no sum: each node still
 * starts from 0.0 and adds (w - x)^2 in dimension order in its own
 * accumulator, and the winner is still the first strict minimum. A table
 * entry is the double the direct expression gives, h is still alpha times
 * it, each component still gets w += h * (x - w), and the fused search
 * reads the weight just stored.
 *
 * On x86-64 glibc the two kernel entry points are built once per vector
 * width (AVX-512, AVX2 and the baseline SSE2; see NETSOM_TARGETS), and the
 * loader picks the widest the CPU runs. The width cannot change a bit
 * either. A vector lane is a node, so a wider vector only handles more
 * nodes at once: each lane still adds (w - x)^2 in dimension order in its
 * own accumulator, and w += h * (x - w) is still a multiply and an add, each
 * rounded, as -ffp-contract=off forbids fusing them and nothing here allows
 * reassociation. The winner is still the first strict minimum, sqrt is
 * correctly rounded at any width, and exp is still the libm call.
 */
#define _POSIX_C_SOURCE 200809L

#include <math.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>

/* Version of the exported functions' argument lists. netsom._core_c refuses
 * a library whose number differs, such as one left over from an older
 * source after a failed rebuild. Bump it whenever a signature changes. */
#define NETSOM_ABI 3

/* The attribute that builds an exported function once for AVX-512, once for
 * AVX2 and once for the baseline, each with the static helpers it calls
 * inlined (flatten), and has glibc's loader pick one copy per function when
 * the library is loaded. Only x86-64 glibc with a compiler that knows
 * target_clones gets it; any other build is one single-target copy.
 * Compiling with -DNETSOM_TARGETS= forces the single-target build. */
#ifndef NETSOM_TARGETS
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define NETSOM_TARGETS __attribute__((target_clones("avx512f", "avx2", "default"), flatten))
#endif
#endif
#endif
#ifndef NETSOM_TARGETS
#define NETSOM_TARGETS
#endif

/* Loads of a slot's stamp before a waiting part starts to yield its CPU
 * between loads, so that a part waiting for that CPU gets to run. */
#define SPIN_ROUNDS 4096

int64_t netsom_abi(void)
{
    return NETSOM_ABI;
}

/* b[j*rows + i] = a[i*cols + j]: the rows x cols matrix a, transposed into b. */
static void transpose(const double *restrict a, int64_t rows, int64_t cols,
                      double *restrict b)
{
    for (int64_t i = 0; i < rows; i++)
        for (int64_t j = 0; j < cols; j++)
            b[j * rows + i] = a[i * cols + j];
}

/* Squared distance of every node of the dim-major wt to x, into acc. */
static void distances(const double *restrict wt, int64_t n, int64_t dim,
                      const double *restrict x, double *restrict acc)
{
    for (int64_t i = 0; i < n; i++)
        acc[i] = 0.0;
    for (int64_t k = 0; k < dim; k++) {
        const double *restrict row = wt + k * n;
        const double xk = x[k];
        for (int64_t i = 0; i < n; i++) {
            double d = row[i] - xk;
            acc[i] += d * d;
        }
    }
}

/* Index of the first strict minimum of acc[from..n) that is below *best,
 * which then holds it; at where no entry is below *best. */
static int64_t scan_min(const double *acc, int64_t from, int64_t n, int64_t at,
                        double *best)
{
    double best_acc = *best;
    for (int64_t i = from; i < n; i++) {
        if (acc[i] < best_acc) {
            best_acc = acc[i];
            at = i;
        }
    }
    *best = best_acc;
    return at;
}

/* Winner index and distance of each of the n_inputs rows of xs. scratch holds
 * n_nodes * (dim + 1) doubles: the dim-major weights and the distances. */
NETSOM_TARGETS
void netsom_bmu_batch(const double *weights, int64_t n_nodes, int64_t dim,
                      const double *xs, int64_t n_inputs,
                      int64_t *idx, double *dist, double *scratch)
{
    const int64_t n = n_nodes;
    double *wt = scratch;
    double *acc = wt + n * dim;
    transpose(weights, n, dim, wt);
    for (int64_t j = 0; j < n_inputs; j++) {
        distances(wt, n, dim, xs + j * dim, acc);
        double best = acc[0];
        idx[j] = scan_min(acc, 1, n, 0, &best);
        dist[j] = sqrt(best);
    }
}

/* h[i - lo] = alpha * exp(-|r_c - r_i|^2 / (2 sigma^2)) for every node i in
 * [lo, hi) of a lattice with cols columns. table[|dr| * cols + |dc|] caches
 * the exp for this sigma; a negative entry (exp never is) has not been
 * computed yet. */
static void gaussian_row(double *restrict h, int64_t lo, int64_t hi, int64_t cols,
                         int64_t c, double alpha, double sigma,
                         double *restrict table)
{
    const int64_t c_row = c / cols;
    const int64_t c_col = c % cols;
    for (int64_t i = lo; i < hi;) {
        const int64_t r = i / cols;
        const int64_t dr = r - c_row;
        double *restrict g = table + (dr < 0 ? -dr : dr) * cols;
        const int64_t row_end = (r + 1) * cols < hi ? (r + 1) * cols : hi;
        for (; i < row_end; i++) {
            const int64_t dc = i - r * cols - c_col;
            const int64_t key = dc < 0 ? -dc : dc;
            if (g[key] < 0.0) {
                double fr = (double)dr;
                double fc = (double)dc;
                double lat2 = fr * fr + fc * fc;
                g[key] = exp(-lat2 / (2.0 * sigma * sigma));
            }
            h[i - lo] = alpha * g[key];
        }
    }
}

/* Set h[i] to 0 where h[i] < 2^-900 and that leaves the update of node i
 * toward x with the same result. Far from the winner a factor can be
 * subnormal, or small enough to make h * (x - w) subnormal, and the CPU
 * takes far longer over subnormal numbers than normal ones; in a large map
 * a ring of distant nodes gets such factors at every fine-tuning step.
 * The update is unchanged, component by component, when either
 * - x - w is a zero: h * (x - w) and 0 * (x - w) are then the same zero;
 * - |w| >= 2^-200 and |x - w| <= 2^300: then |h * (x - w)| <= 2^-600, well
 *   under half the spacing of doubles near w (at least 2^-254), so
 *   w + h * (x - w) rounds to w, and so does w + 0 for w != 0.
 * NaN and infinite components fail both tests, so such nodes keep h. */
static void zero_negligible_factors(double *restrict h, const double *restrict wt,
                                    int64_t n, int64_t dim,
                                    const double *restrict x)
{
    for (int64_t i = 0; i < n; i++) {
        if (!(h[i] > 0.0 && h[i] < 0x1p-900))
            continue;
        int64_t k = 0;
        for (; k < dim; k++) {
            const double w = wt[k * n + i];
            const double d = x[k] - w;
            if (!(d == 0.0 || (fabs(w) >= 0x1p-200 && fabs(d) <= 0x1p300)))
                break;
        }
        if (k == dim)
            h[i] = 0.0;
    }
}

/* w += h * (x - w) for every node of the dim-major wt, and each updated
 * node's squared distance to next into acc. */
static void update(double *restrict wt, int64_t n, int64_t dim,
                   const double *restrict x, const double *restrict h,
                   const double *restrict next, double *restrict acc)
{
    for (int64_t i = 0; i < n; i++)
        acc[i] = 0.0;
    for (int64_t k = 0; k < dim; k++) {
        double *restrict row = wt + k * n;
        const double xk = x[k];
        const double nk = next[k];
        for (int64_t i = 0; i < n; i++) {
            double w = row[i];
            w += h[i] * (xk - w);
            row[i] = w;
            double d = w - nk;
            acc[i] += d * d;
        }
    }
}

/* One part's published winners, a cache line of its own. Step t's winner
 * goes into entry t % 2, and then stamp becomes t + 1. A part can be at
 * most one step ahead of another, as it reads every stamp at each step, so
 * it never overwrites an entry that another part has yet to read. */
struct slot {
    _Atomic int64_t stamp;
    int64_t index[2];
    double dist[2];
    int64_t pad[3];
};

_Static_assert(sizeof(struct slot) == 64, "a slot fills one 64-byte line");

/* Wait until the part that owns stamp has published step t: spin
 * SPIN_ROUNDS loads, then yield the CPU between loads. */
static void wait_for(_Atomic int64_t *stamp, int64_t t)
{
    for (int64_t round = 0; atomic_load_explicit(stamp, memory_order_acquire) <= t; round++)
        if (round >= SPIN_ROUNDS)
            sched_yield();
}

/* Step t's winner over all parts: this part's winner c at distance d goes
 * into its slot, then the slots are read in part order and a later part's
 * winner is kept only where it is strictly smaller. */
static int64_t combine(struct slot *slots, int64_t part, int64_t n_parts,
                       int64_t t, int64_t c, double d)
{
    const int64_t e = t % 2;
    slots[part].index[e] = c;
    slots[part].dist[e] = d;
    atomic_store_explicit(&slots[part].stamp, t + 1, memory_order_release);
    int64_t best = 0;
    double best_d = 0.0;
    for (int64_t q = 0; q < n_parts; q++) {
        wait_for(&slots[q].stamp, t);
        if (q == 0 || slots[q].dist[e] < best_d) {
            best = slots[q].index[e];
            best_d = slots[q].dist[e];
        }
    }
    return best;
}

/* One winner search and update per stimulus, for the nodes [lo, hi) of
 * n_nodes weights on a lattice with cols columns (n_nodes a multiple of
 * cols): part `part` of n_parts calls made at once, which together cover
 * every node. sync holds n_parts zeroed 64-byte slots; with one part it is
 * not read. scratch holds (hi - lo) * (dim + 2) + n_nodes doubles: the
 * part's dim-major weights, distances and factors, and the factor table. */
NETSOM_TARGETS
void netsom_run_steps(double *weights, int64_t n_nodes, int64_t dim,
                      const double *xs, const int64_t *stimuli,
                      const double *alphas, const double *sigmas,
                      int64_t n_steps, int64_t cols, int64_t lo, int64_t hi,
                      int64_t part, int64_t n_parts, void *sync, double *scratch)
{
    if (n_steps == 0)
        return;
    const int64_t m = hi - lo;
    double *wt = scratch;
    double *acc = wt + m * dim;
    double *h = acc + m;
    double *table = h + m;
    transpose(weights + lo * dim, m, dim, wt);

    distances(wt, m, dim, xs + stimuli[0] * dim, acc);
    for (int64_t t = 0; t < n_steps; t++) {
        if (t == 0 || sigmas[t] != sigmas[t - 1])
            for (int64_t i = 0; i < n_nodes; i++)
                table[i] = -1.0;
        const double *x = xs + stimuli[t] * dim;
        const double *next = xs + stimuli[t + 1 < n_steps ? t + 1 : t] * dim;
        /* The first part's search finds the first strict minimum, starting
         * at its first node. A later part's starts below +inf instead: were
         * its first node's distance NaN, no other would compare below it.
         * A part with no distance below +inf offers +inf, which never beats
         * another part's winner. */
        double d = part == 0 ? acc[0] : INFINITY;
        int64_t c = lo + scan_min(acc, part == 0, m, 0, &d);
        if (n_parts > 1)
            c = combine(sync, part, n_parts, t, c, d);
        gaussian_row(h, lo, hi, cols, c, alphas[t], sigmas[t], table);
        zero_negligible_factors(h, wt, m, dim, x);
        update(wt, m, dim, x, h, next, acc);
    }
    transpose(wt, dim, m, weights + lo * dim);
}
