//! Statistical machinery: log-gamma, χ²/Student-t survival functions,
//! G-test, Welch t-test, and the pluggable [`Statistic`] abstraction the
//! campaign engine tests every probing set with.
//!
//! A table is pooled in one place: a two-walk pass that pools the rare
//! columns, then sums the G statistic and the pooling self-audit
//! together. [`g_test`], [`pooling_summary`] and [`g_breakdown`] are
//! views of that pass, and a campaign's sweep takes both from it.
//!
//! Implemented from first principles (Lanczos approximation + incomplete
//! gamma/beta series and continued fractions) to keep the workspace free
//! of heavy numeric dependencies; accuracy is validated in tests against
//! known values.

use crate::tabulate::Columns;

/// Natural log of the gamma function (Lanczos approximation, g = 7).
///
/// Accurate to ~1e-13 over the positive reals.
///
/// # Panics
///
/// Panics for non-positive input.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument");
    const COEFFICIENTS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut accumulator = COEFFICIENTS[0];
    for (index, &coefficient) in COEFFICIENTS.iter().enumerate().skip(1) {
        accumulator += coefficient / (x + index as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + accumulator.ln()
}

/// Regularized lower incomplete gamma function `P(s, x)` via its series
/// expansion (used for `x < s + 1`).
fn gamma_p_series(s: f64, x: f64) -> f64 {
    let mut term = 1.0 / s;
    let mut sum = term;
    let mut denominator = s;
    for _ in 0..500 {
        denominator += 1.0;
        term *= x / denominator;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    (sum.ln() + s * x.ln() - x - ln_gamma(s)).exp()
}

/// Regularized upper incomplete gamma function `Q(s, x)` via a continued
/// fraction (modified Lentz; used for `x ≥ s + 1`).
fn gamma_q_continued_fraction(s: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - s;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let a = -(i as f64) * (i as f64 - s);
        b += 2.0;
        d = a * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + a / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (h.ln() + s * x.ln() - x - ln_gamma(s)).exp()
}

/// Survival function of the χ² distribution with `df` degrees of freedom:
/// `P[X ≥ x]`.
///
/// Returns 1.0 for `x ≤ 0`; underflows to 0 for extremely large
/// statistics (callers use [`minus_log10_p`] for reporting).
///
/// # Panics
///
/// Panics if `df == 0`.
pub fn chi2_sf(x: f64, df: u64) -> f64 {
    assert!(df > 0, "chi-squared needs at least 1 degree of freedom");
    if x <= 0.0 {
        return 1.0;
    }
    let s = df as f64 / 2.0;
    let half_x = x / 2.0;
    if half_x < s + 1.0 {
        1.0 - gamma_p_series(s, half_x)
    } else {
        gamma_q_continued_fraction(s, half_x)
    }
}

/// `-log10(p)` with saturation: underflowed p-values (p < ~1e-308) are
/// reported as 308.0, mirroring how PROLEAD reports extreme leakage.
pub fn minus_log10_p(p_value: f64) -> f64 {
    if p_value <= 0.0 {
        308.0
    } else {
        (-p_value.log10()).min(308.0)
    }
}

/// Minimum column total below which cells are pooled into a rare-events
/// bucket before the G-test.
///
/// The χ² approximation of the G statistic is anti-conservative on
/// sparse tables: with thousands of cells holding ~10 counts each, the
/// statistic's true mean exceeds the degrees of freedom and the test
/// reports spurious `-log10(p)` values of 5–8 (observed empirically on
/// the 14-bit-cone probes of the masked S-box). Keeping only columns
/// with a total of at least 32 (≈16 expected per population, comfortably
/// past Cochran's rule) and pooling the rest into one bucket keeps the
/// test calibrated. Wide cones at small sample sizes thereby lose power
/// — honestly: 2¹⁴-cell tables cannot be tested with 2·10⁵ samples — while
/// every genuine leak in this workspace also manifests on small cones
/// with large per-cell counts (the Eq. 6 flaw sits at -log10(p) = 308 on
/// 4-bit cones).
pub const POOLING_THRESHOLD: u64 = 32;

/// The `(fixed, random)` columns exactly as the G-test consumes a
/// table: its key-sorted counts, then the overflow bucket if any (one
/// more contingency column). Read in place, so the statistic, the
/// pooling self-audit and the health layer share the table's own walk.
pub(crate) fn g_columns(
    columns: Columns<'_>,
    overflow: [u64; 2],
) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
    columns
        .map(|(_, cell)| (cell[0], cell[1]))
        .chain((overflow[0] + overflow[1] > 0).then_some((overflow[0], overflow[1])))
}

/// The first walk of the pooled pass: splits the non-empty columns
/// into kept ones (total at least [`POOLING_THRESHOLD`]) and the
/// rare-events bucket, with row totals over the pooled table.
#[derive(Debug, Clone, Copy, Default)]
struct Pooling {
    /// Non-empty columns kept as their own contingency cells.
    kept: u64,
    /// Non-empty columns pooled into `rare`.
    pooled: u64,
    /// The rare-events bucket.
    rare: (u64, u64),
    /// Row totals over the kept columns and the bucket.
    rows: (u64, u64),
}

impl Pooling {
    fn of(columns: impl Iterator<Item = (u64, u64)>) -> Self {
        let mut pooling = Pooling::default();
        // `for_each`, not `for`: a table's walk dispatches on its store
        // once per fold, but once per column through `next`.
        columns.for_each(|(a, b)| {
            if a + b == 0 {
                return;
            }
            if a + b < POOLING_THRESHOLD {
                pooling.rare.0 += a;
                pooling.rare.1 += b;
                pooling.pooled += 1;
            } else {
                pooling.kept += 1;
            }
            pooling.rows.0 += a;
            pooling.rows.1 += b;
        });
        pooling
    }
}

/// What one pooled pass over a table yields: the G-test and the pooling
/// self-audit of the same pooled table, and its rare-events bucket.
pub(crate) struct Pooled {
    /// The G-test; `None` when the pooled table is untestable.
    pub(crate) test: Option<TestOutcome>,
    /// How pooling treated the table.
    pub(crate) summary: PoolingSummary,
    /// The rare-events bucket's counts per population.
    rare: (u64, u64),
    /// The bucket's share of the statistic (0.0 when nothing was pooled
    /// or the table is untestable).
    rare_share: f64,
}

/// The one place a table is pooled. The first walk pools; when the
/// pooled table is testable, the second walks the kept columns in input
/// order, then the bucket, summing the G statistic and tracking the
/// minimum expected count together, and hands `fate` what became of
/// each input column, in input order. Two walks of `columns` and no
/// allocation.
pub(crate) fn pool<I>(columns: I, mut fate: impl FnMut(ColumnFate)) -> Pooled
where
    I: IntoIterator<Item = (u64, u64)>,
    I::IntoIter: Clone,
{
    let columns = columns.into_iter();
    let pooling = Pooling::of(columns.clone());
    let mut pooled = Pooled {
        test: None,
        summary: PoolingSummary {
            tested_columns: pooling.kept,
            pooled_columns: pooling.pooled,
            pooled_mass: pooling.rare.0 + pooling.rare.1,
            total_mass: pooling.rows.0 + pooling.rows.1,
            ..PoolingSummary::default()
        },
        rare: pooling.rare,
        rare_share: 0.0,
    };
    // Columns left after pooling: the kept ones and the bucket, if any.
    let left = pooling.kept + u64::from(pooled.summary.pooled_mass > 0);
    if left < 2 || pooling.rows.0 == 0 || pooling.rows.1 == 0 {
        return pooled;
    }
    let (row0, row1) = pooling.rows;
    let total = (row0 + row1) as f64;
    let mut statistic = 0.0;
    let mut min_expected = f64::INFINITY;
    // The one per-column term: each population's `2o·ln(o/e)` joins the
    // running sum on its own, the order every reported statistic has
    // been summed in; the column's share is their sum.
    let mut column = |cell: [u64; 2]| {
        let column_total = (cell[0] + cell[1]) as f64;
        let mut share = 0.0;
        for (observed, row) in cell.into_iter().zip([row0, row1]) {
            let expected = row as f64 * column_total / total;
            min_expected = min_expected.min(expected);
            if observed > 0 {
                let term = 2.0 * observed as f64 * (observed as f64 / expected).ln();
                statistic += term;
                share += term;
            }
        }
        share
    };
    columns.for_each(|(a, b)| {
        fate(match a + b {
            0 => ColumnFate::Empty,
            sum if sum < POOLING_THRESHOLD => ColumnFate::Pooled,
            _ => ColumnFate::Tested {
                contribution: column([a, b]),
            },
        });
    });
    if pooled.summary.pooled_mass > 0 {
        pooled.rare_share = column([pooling.rare.0, pooling.rare.1]);
    }
    let df = left - 1;
    let p_value = chi2_sf(statistic, df);
    pooled.test = Some(TestOutcome {
        statistic,
        df: df as f64,
        p_value,
        minus_log10_p: minus_log10_p(p_value),
    });
    pooled.summary.min_expected = min_expected;
    pooled.summary.testable = true;
    pooled
}

/// Performs a G-test of independence on a 2×K contingency table given as
/// `(count_group0, count_group1)` per column.
///
/// Columns whose total is below [`POOLING_THRESHOLD`] are pooled into a
/// single bucket. Returns `None` when, after pooling, fewer than two
/// columns remain or either group is empty (no test possible — treated
/// as "no evidence of leakage" by callers). The degrees of freedom are
/// the pooled column count less one.
///
/// A view of the pooled pass: two walks of `columns` and no allocation.
pub fn g_test<I>(columns: I) -> Option<TestOutcome>
where
    I: IntoIterator<Item = (u64, u64)>,
    I::IntoIter: Clone,
{
    pool(columns, |_| {}).test
}

/// What [`g_breakdown`] did with one input column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnFate {
    /// Kept as its own column; carries this share of the G statistic
    /// (`2a·ln(a/e₀) + 2b·ln(b/e₁)`, which can be negative for columns
    /// closer to independence than expected).
    Tested {
        /// The column's additive contribution to
        /// [`TestOutcome::statistic`].
        contribution: f64,
    },
    /// Merged into the rare-events bucket (column total below
    /// [`POOLING_THRESHOLD`]).
    Pooled,
    /// Zero in both populations — skipped entirely.
    Empty,
}

/// Per-column decomposition of a [`g_test`]: which observation cells
/// drive the statistic.
///
/// Forensic evidence bundles use this to rank contingency-table cells
/// by their share of the evidence instead of reporting one opaque
/// aggregate number.
#[derive(Debug, Clone, PartialEq)]
pub struct GBreakdown {
    /// The aggregate test, identical to what [`g_test`] returns on the
    /// same input.
    pub test: TestOutcome,
    /// One fate per *input* column, in input order.
    pub fates: Vec<ColumnFate>,
    /// Total counts pooled into the rare-events bucket per population.
    pub pooled_counts: (u64, u64),
    /// The rare-events bucket's contribution to the statistic (0.0 when
    /// nothing was pooled).
    pub pooled_contribution: f64,
}

/// Decomposes a G-test into per-column contributions.
///
/// The same pooled pass as [`g_test`], recording each column's fate:
/// `g_breakdown(columns).map(|b| b.test)` equals
/// `g_test(columns.iter().copied())` bit for bit, and both return `None`
/// in exactly the same untestable cases. The tested columns'
/// contributions plus [`GBreakdown::pooled_contribution`] sum to the
/// statistic.
pub fn g_breakdown(columns: &[(u64, u64)]) -> Option<GBreakdown> {
    let mut fates = Vec::with_capacity(columns.len());
    let pooled = pool(columns.iter().copied(), |fate| fates.push(fate));
    Some(GBreakdown {
        test: pooled.test?,
        fates,
        pooled_counts: pooled.rare,
        pooled_contribution: pooled.rare_share,
    })
}

/// What [`g_test`] pooling does to a table — the self-audit numbers
/// surfaced by [`crate::report::LeakageReport`] and the health layer,
/// taken from the same pooled pass as the test. The χ² approximation
/// degrades silently when cells are under-sampled; these numbers make
/// that visible.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolingSummary {
    /// Non-empty columns kept as their own contingency cells.
    pub tested_columns: u64,
    /// Non-empty columns pooled into the rare-events bucket
    /// (total below [`POOLING_THRESHOLD`]).
    pub pooled_columns: u64,
    /// Sample mass (both populations) sitting in pooled columns.
    pub pooled_mass: u64,
    /// Total sample mass across all non-empty columns.
    pub total_mass: u64,
    /// Minimum expected cell count in the post-pooling table
    /// (0 when untestable).
    pub min_expected: f64,
    /// Whether the pooled table supports a calibrated G-test —
    /// `pooling_summary(c).testable == g_test(c).is_some()`.
    pub testable: bool,
}

impl PoolingSummary {
    /// The share of the sample mass sitting in pooled columns (0 for
    /// an empty table).
    pub fn pooled_fraction(&self) -> f64 {
        if self.total_mass > 0 {
            self.pooled_mass as f64 / self.total_mass as f64
        } else {
            0.0
        }
    }
}

/// Summarizes how [`g_test`] pooling treats `columns`: which survive,
/// which get pooled, and the minimum expected cell count afterwards.
/// A view of the same pooled pass as [`g_test`].
pub fn pooling_summary<I>(columns: I) -> PoolingSummary
where
    I: IntoIterator<Item = (u64, u64)>,
    I::IntoIter: Clone,
{
    pool(columns, |_| {}).summary
}

/// A Welch's t-test result (the classic TVLA statistic, used by the
/// zero-value-problem DPA demonstration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchT {
    /// The t statistic.
    pub statistic: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
}

/// Welch's unequal-variance t-test between two samples, returning `None`
/// when either sample has fewer than two points or zero variance in both.
pub fn welch_t_test(sample_a: &[f64], sample_b: &[f64]) -> Option<WelchT> {
    if sample_a.len() < 2 || sample_b.len() < 2 {
        return None;
    }
    let mean = |sample: &[f64]| sample.iter().sum::<f64>() / sample.len() as f64;
    let variance = |sample: &[f64], mean: f64| {
        sample
            .iter()
            .map(|value| (value - mean).powi(2))
            .sum::<f64>()
            / (sample.len() - 1) as f64
    };
    let (mean_a, mean_b) = (mean(sample_a), mean(sample_b));
    let (var_a, var_b) = (variance(sample_a, mean_a), variance(sample_b, mean_b));
    let (n_a, n_b) = (sample_a.len() as f64, sample_b.len() as f64);
    let se2 = var_a / n_a + var_b / n_b;
    if se2 <= 0.0 {
        return None;
    }
    let statistic = (mean_a - mean_b) / se2.sqrt();
    let df =
        se2 * se2 / ((var_a / n_a).powi(2) / (n_a - 1.0) + (var_b / n_b).powi(2) / (n_b - 1.0));
    Some(WelchT { statistic, df })
}

/// Continued-fraction kernel of the regularized incomplete beta
/// function (modified Lentz, Numerical Recipes `betacf`). Converges for
/// `x < (a + 1) / (a + b + 2)`; [`incomplete_beta`] handles the
/// symmetric tail.
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        let numerator = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + numerator * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + numerator / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        let numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + numerator * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + numerator / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// # Panics
///
/// Panics for non-positive `a` or `b`.
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "incomplete_beta requires positive shape parameters"
    );
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b
    }
}

/// Two-sided p-value of Student's t distribution with (real-valued)
/// `df` degrees of freedom: `P[|T| ≥ |t|] = I_{df/(df+t²)}(df/2, 1/2)`.
///
/// Underflows to 0 for extreme statistics (callers use
/// [`minus_log10_p`] for reporting), matching [`chi2_sf`]'s convention.
///
/// # Panics
///
/// Panics for non-positive `df`.
pub fn student_t_sf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "Student's t needs positive degrees of freedom");
    let x = df / (df + t * t);
    incomplete_beta(df / 2.0, 0.5, x)
}

/// Which detection statistic a campaign runs — the configuration-level
/// handle for the [`Statistic`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatisticKind {
    /// The PROLEAD-style G-test of independence on the full
    /// fixed-vs-random contingency table (the paper's test).
    #[default]
    GTest,
    /// A TVLA-style Welch t-test on the Hamming weight of the observed
    /// valuation, taking the stronger of the first-order (mean) and
    /// second-order (centered-squared) legs computed from the same
    /// contingency table.
    TTest,
}

impl StatisticKind {
    /// Stable lowercase name (CLI flag values, event fields, snapshot
    /// records).
    pub fn name(self) -> &'static str {
        match self {
            StatisticKind::GTest => "gtest",
            StatisticKind::TTest => "ttest",
        }
    }

    /// Parses a `--statistic` flag value.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "gtest" | "g" => Some(StatisticKind::GTest),
            "ttest" | "t" => Some(StatisticKind::TTest),
            _ => None,
        }
    }

    /// The statistic implementation behind this kind.
    pub fn as_statistic(self) -> &'static dyn Statistic {
        match self {
            StatisticKind::GTest => &GTestStatistic,
            StatisticKind::TTest => &WelchTStatistic,
        }
    }
}

/// Outcome of testing one probing set's contingency table with a
/// [`Statistic`]: the statistic value, its (possibly fractional)
/// degrees of freedom, and the p-value on the common `-log10` scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestOutcome {
    /// The test statistic (G, or Welch's t).
    pub statistic: f64,
    /// Degrees of freedom — integer for the G-test,
    /// Welch–Satterthwaite (real-valued) for the t-test.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// `-log10(p)`, the reporting convention shared by both tests.
    pub minus_log10_p: f64,
}

/// A leakage-detection statistic evaluated per probing set on the keyed
/// fixed-vs-random contingency table.
///
/// Implementations receive the table exactly as the tabulator stores
/// it: `(observation key, [fixed count, random count])` columns sorted
/// by key, read in place ([`Table::columns`](crate::tabulate::Table::columns)),
/// plus the overflow bucket (counts absorbed after the table
/// hit its key cap — keyless, so key-dependent statistics must decide
/// what to do with it). Returning `None` means the table is untestable
/// under this statistic, which callers treat as "no evidence of
/// leakage".
pub trait Statistic: Sync {
    /// Stable lowercase name, matching [`StatisticKind::name`].
    fn name(&self) -> &'static str;

    /// Tests the keyed columns + overflow bucket.
    fn evaluate_columns(&self, columns: Columns<'_>, overflow: [u64; 2]) -> Option<TestOutcome>;

    /// Tests columns collected into a slice sorted by key, such as
    /// [`ProbeTable::columns`](crate::ProbeTable::columns).
    fn evaluate(&self, columns: &[(u128, [u64; 2])], overflow: [u64; 2]) -> Option<TestOutcome> {
        self.evaluate_columns(Columns::from(columns), overflow)
    }
}

/// The fixed-vs-random G-test as a [`Statistic`]: [`g_test`] over the
/// table's `(fixed, random)` columns, then the overflow bucket as one
/// more column — bit-for-bit the statistic the campaign has always
/// computed.
#[derive(Debug, Clone, Copy, Default)]
pub struct GTestStatistic;

impl Statistic for GTestStatistic {
    fn name(&self) -> &'static str {
        "gtest"
    }

    fn evaluate_columns(&self, columns: Columns<'_>, overflow: [u64; 2]) -> Option<TestOutcome> {
        g_test(g_columns(columns, overflow))
    }
}

/// A TVLA-style Welch t-test as a [`Statistic`]: reduces every
/// observation to the Hamming weight of its key (the classic
/// power-model proxy for a glitch-extended valuation), accumulates
/// exact integer power sums per population from the contingency
/// counts, and runs the standard TVLA pair of tests — first order on
/// the population means, second order on the centered-squared samples
/// (Schneider–Moradi preprocessing: `y = (x − μ̂)²` per population,
/// with `Var(y) = CM4 − CM2²` from the central moments). The reported
/// outcome is whichever order separates the populations more strongly;
/// a masked design's mean-free leakage (the usual case at first
/// protection order) surfaces through the second-order leg.
///
/// The power sums are exact — `Σ hwᵏ·count` for k ≤ 4 in 128-bit
/// integers — so the test is as deterministic as the table itself. The
/// overflow bucket is excluded: its observations lost their key
/// identity, so no Hamming weight exists for them (the G-test, by
/// contrast, keeps it as an extra column). Untestable when either
/// population has fewer than two samples or no order has positive
/// variance.
#[derive(Debug, Clone, Copy, Default)]
pub struct WelchTStatistic;

/// One Welch leg: given per-population `(n, mean, variance-of-sample)`
/// estimates, the t statistic, Welch–Satterthwaite df and p-value.
fn welch_leg(count: [u64; 2], mean: [f64; 2], variance: [f64; 2]) -> Option<TestOutcome> {
    let n0 = count[0] as f64;
    let n1 = count[1] as f64;
    let se2 = variance[0] / n0 + variance[1] / n1;
    if se2 <= 0.0 || se2.is_nan() {
        return None;
    }
    let statistic = (mean[0] - mean[1]) / se2.sqrt();
    let df = se2 * se2
        / ((variance[0] / n0).powi(2) / (n0 - 1.0) + (variance[1] / n1).powi(2) / (n1 - 1.0));
    let p_value = student_t_sf(statistic.abs(), df);
    Some(TestOutcome {
        statistic,
        df,
        p_value,
        minus_log10_p: minus_log10_p(p_value),
    })
}

impl Statistic for WelchTStatistic {
    fn name(&self) -> &'static str {
        "ttest"
    }

    fn evaluate_columns(&self, columns: Columns<'_>, _overflow: [u64; 2]) -> Option<TestOutcome> {
        let mut count = [0u64; 2];
        // Exact raw power sums Σ hwᵏ·count, k = 1..4. hw ≤ 128 so
        // hw⁴ ≤ 2²⁸; with u64 counts the u128 accumulators cannot
        // overflow at any realistic trace budget.
        let mut power = [[0u128; 4]; 2];
        for (key, cell) in columns {
            let weight = u128::from(key.count_ones());
            for population in 0..2 {
                let c = u128::from(cell[population]);
                count[population] += cell[population];
                let mut term = c;
                for sum in &mut power[population] {
                    term *= weight;
                    *sum += term;
                }
            }
        }
        if count[0] < 2 || count[1] < 2 {
            return None;
        }
        let mut mean = [0.0f64; 2];
        let mut var_unbiased = [0.0f64; 2];
        let mut cm2 = [0.0f64; 2];
        let mut var_of_squares = [0.0f64; 2];
        for population in 0..2 {
            let n = count[population];
            let nf = n as f64;
            let [s1, s2, s3, s4] = power[population];
            // Unbiased variance for the first-order leg:
            // (n·Σx² − (Σx)²) / (n·(n−1)), numerator exact in u128
            // (non-negative by Cauchy–Schwarz) — no cancellation.
            let numerator = u128::from(n) * s2 - s1 * s1;
            mean[population] = s1 as f64 / nf;
            var_unbiased[population] = numerator as f64 / (nf * (n - 1) as f64);
            // Central moments for the second-order leg (biased, as in
            // the TVLA methodology): CM2 = m2 − μ², CM4 = m4 − 4μm3 +
            // 6μ²m2 − 3μ⁴ with mk = Σxᵏ/n.
            let mu = mean[population];
            let m2 = s2 as f64 / nf;
            let m3 = s3 as f64 / nf;
            let m4 = s4 as f64 / nf;
            let c2 = m2 - mu * mu;
            let c4 = m4 - 4.0 * mu * m3 + 6.0 * mu * mu * m2 - 3.0 * mu.powi(4);
            cm2[population] = c2;
            var_of_squares[population] = c4 - c2 * c2;
        }
        let first = welch_leg(count, mean, var_unbiased);
        let second = welch_leg(count, cm2, var_of_squares);
        match (first, second) {
            (Some(a), Some(b)) => Some(if b.minus_log10_p > a.minus_log10_p {
                b
            } else {
                a
            }),
            (outcome, None) | (None, outcome) => outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_known_values() {
        // I_x(1, 1) = x; I_x(2, 2) = x²(3 − 2x); symmetry.
        for x in [0.1f64, 0.25, 0.5, 0.75, 0.9] {
            assert!((incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-12, "x = {x}");
            let reference = x * x * (3.0 - 2.0 * x);
            assert!(
                (incomplete_beta(2.0, 2.0, x) - reference).abs() < 1e-12,
                "x = {x}"
            );
            let symmetric = 1.0 - incomplete_beta(3.0, 5.0, 1.0 - x);
            assert!(
                (incomplete_beta(5.0, 3.0, x) - symmetric).abs() < 1e-12,
                "x = {x}"
            );
        }
    }

    #[test]
    fn student_t_sf_matches_reference_values() {
        // df=1 (Cauchy): P[|T| ≥ 1] = 0.5; P[|T| ≥ 12.706] ≈ 0.05.
        assert!((student_t_sf(1.0, 1.0) - 0.5).abs() < 1e-9);
        assert!((student_t_sf(12.706_204_736_174_694, 1.0) - 0.05).abs() < 1e-9);
        // df=10: P[|T| ≥ 2.228] ≈ 0.05.
        assert!((student_t_sf(2.228_138_851_986_273, 10.0) - 0.05).abs() < 1e-6);
        // t = 0 → p = 1; huge t underflows and saturates the log scale.
        assert!((student_t_sf(0.0, 5.0) - 1.0).abs() < 1e-12);
        assert_eq!(minus_log10_p(student_t_sf(1e6, 1e6)), 308.0);
    }

    #[test]
    fn student_t_sf_is_monotone_in_t() {
        let mut last = 1.0;
        for step in 0..100 {
            let t = step as f64 * 0.25;
            let p = student_t_sf(t, 7.5);
            assert!(p <= last + 1e-15, "t = {t}");
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn gtest_statistic_impl_matches_raw_g_test() {
        let columns: Vec<(u128, [u64; 2])> =
            vec![(0, [1000, 200]), (1, [200, 950]), (5, [400, 420])];
        let outcome = GTestStatistic
            .evaluate(&columns, [40, 10])
            .expect("testable");
        let reference = g_test([(1000, 200), (200, 950), (400, 420), (40, 10)]).expect("testable");
        assert_eq!(outcome.statistic, reference.statistic);
        assert_eq!(outcome.df, reference.df);
        assert_eq!(outcome.minus_log10_p, reference.minus_log10_p);
        // Empty overflow adds no column.
        let without = GTestStatistic.evaluate(&columns, [0, 0]).expect("testable");
        let reference = g_test([(1000, 200), (200, 950), (400, 420)]).expect("testable");
        assert_eq!(without.statistic, reference.statistic);
    }

    #[test]
    fn welch_statistic_separates_shifted_weight_distributions() {
        // Population 0 concentrated on low-weight keys, population 1 on
        // high-weight keys: the mean Hamming weights differ decisively.
        let columns: Vec<(u128, [u64; 2])> = vec![(0b0001, [900, 100]), (0b0111, [100, 900])];
        let outcome = WelchTStatistic
            .evaluate(&columns, [0, 0])
            .expect("testable");
        assert!(outcome.statistic.abs() > 10.0, "{outcome:?}");
        assert!(outcome.minus_log10_p > 10.0, "{outcome:?}");
    }

    #[test]
    fn welch_statistic_accepts_identical_distributions() {
        let columns: Vec<(u128, [u64; 2])> = vec![
            (0b0001, [500, 500]),
            (0b0011, [300, 300]),
            (0b0111, [200, 200]),
        ];
        let outcome = WelchTStatistic
            .evaluate(&columns, [0, 0])
            .expect("testable");
        assert!(outcome.statistic.abs() < 1e-9, "{outcome:?}");
        assert!(outcome.minus_log10_p < 1.0, "{outcome:?}");
    }

    #[test]
    fn welch_statistic_flags_mean_free_variance_leakage() {
        // Equal Hamming-weight means (both 2) but very different
        // spreads: population 0 sits entirely on weight 2, population 1
        // splits between weights 0 and 4. The first-order leg sees
        // nothing; the second-order (centered-squared) leg must flag it
        // — this is exactly how a masked design's mean-free leakage
        // shows up in a TVLA evaluation.
        let columns: Vec<(u128, [u64; 2])> = vec![
            (0b0000, [0, 300]),
            (0b0011, [1000, 400]),
            (0b1111, [0, 300]),
        ];
        let outcome = WelchTStatistic
            .evaluate(&columns, [0, 0])
            .expect("testable");
        assert!(outcome.minus_log10_p > 10.0, "{outcome:?}");
    }

    #[test]
    fn welch_statistic_rejects_degenerate_tables() {
        // Fewer than two samples in a population.
        assert!(WelchTStatistic
            .evaluate(&[(1, [1, 1000])], [0, 0])
            .is_none());
        // Zero variance in both populations (single key).
        assert!(WelchTStatistic
            .evaluate(&[(3, [1000, 1000])], [0, 0])
            .is_none());
        // Empty table.
        assert!(WelchTStatistic.evaluate(&[], [0, 0]).is_none());
    }

    #[test]
    fn welch_statistic_ignores_the_overflow_bucket() {
        let columns: Vec<(u128, [u64; 2])> = vec![(0b0001, [500, 480]), (0b0011, [300, 320])];
        let with = WelchTStatistic
            .evaluate(&columns, [10_000, 0])
            .expect("testable");
        let without = WelchTStatistic
            .evaluate(&columns, [0, 0])
            .expect("testable");
        assert_eq!(with, without);
    }

    #[test]
    fn statistic_kind_round_trips_names() {
        for kind in [StatisticKind::GTest, StatisticKind::TTest] {
            assert_eq!(StatisticKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.as_statistic().name(), kind.name());
        }
        assert_eq!(StatisticKind::parse("g"), Some(StatisticKind::GTest));
        assert_eq!(StatisticKind::parse("t"), Some(StatisticKind::TTest));
        assert_eq!(StatisticKind::parse("chi2"), None);
        assert_eq!(StatisticKind::default(), StatisticKind::GTest);
    }

    #[test]
    fn welch_t_separates_shifted_means() {
        let sample_a: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let sample_b: Vec<f64> = (0..100).map(|i| (i % 7) as f64 + 3.0).collect();
        let result = welch_t_test(&sample_a, &sample_b).expect("testable");
        assert!(result.statistic.abs() > 10.0, "{result:?}");
    }

    #[test]
    fn welch_t_accepts_identical_samples() {
        let sample: Vec<f64> = (0..100).map(|i| ((i * 37) % 11) as f64).collect();
        let result = welch_t_test(&sample, &sample).expect("testable");
        assert!(result.statistic.abs() < 1e-12);
    }

    #[test]
    fn welch_t_rejects_degenerate_input() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        assert!(welch_t_test(&[1.0, 1.0], &[1.0, 1.0]).is_none());
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn chi2_sf_matches_reference_values() {
        // df=1: P[X ≥ 3.841] ≈ 0.05; df=2: SF(x) = exp(-x/2).
        assert!((chi2_sf(3.841_458_820_694_124, 1) - 0.05).abs() < 1e-9);
        for x in [0.5f64, 1.0, 5.0, 20.0] {
            assert!((chi2_sf(x, 2) - (-x / 2.0).exp()).abs() < 1e-12, "x = {x}");
        }
        // df=10, x=18.307 → p ≈ 0.05.
        assert!((chi2_sf(18.307_038_053_275_146, 10) - 0.05).abs() < 1e-6);
    }

    #[test]
    fn chi2_sf_is_monotone_and_bounded() {
        let mut last = 1.0;
        for step in 0..200 {
            let x = step as f64 * 0.5;
            let p = chi2_sf(x, 4);
            assert!(p <= last + 1e-15);
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn extreme_statistics_saturate_the_log_scale() {
        let p = chi2_sf(5000.0, 1);
        assert_eq!(p, 0.0); // underflow
        assert_eq!(minus_log10_p(p), 308.0);
        assert!((minus_log10_p(1e-7) - 7.0).abs() < 1e-9);
        assert!(minus_log10_p(1.0).abs() < 1e-12);
    }

    #[test]
    fn g_test_detects_a_blatant_difference() {
        // Group 0 sees key A 1000×, group 1 sees key B 1000×.
        let result = g_test([(1000, 0), (0, 1000)]).expect("testable");
        assert!(result.minus_log10_p > 100.0, "{result:?}");
    }

    #[test]
    fn g_test_accepts_identical_distributions() {
        let result = g_test([(500, 510), (490, 480), (510, 505)]).expect("testable");
        assert!(result.minus_log10_p < 2.0, "{result:?}");
    }

    #[test]
    fn g_test_stays_calibrated_on_sparse_tables() {
        // 4096 columns with ~12 counts each, split binomially between
        // the groups: a calibrated test must NOT flag this.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        // Mix of sparse columns (pooled away) and a few dense ones.
        let columns: Vec<(u64, u64)> = (0..4096)
            .map(|index| {
                let total = if index % 64 == 0 {
                    40 + (next() % 20) as u64
                } else {
                    8 + (next() % 9) as u64
                };
                let group0 = (0..total).filter(|_| next() % 2 == 0).count() as u64;
                (group0, total - group0)
            })
            .collect();
        let result = g_test(columns.iter().copied()).expect("testable");
        assert!(
            result.minus_log10_p < 4.0,
            "sparse-table inflation: {result:?}"
        );

        // An all-sparse table is honestly reported as untestable rather
        // than producing an inflated statistic.
        let all_sparse: Vec<(u64, u64)> = (0..4096)
            .map(|_| {
                let total = 8 + (next() % 9) as u64;
                let group0 = (0..total).filter(|_| next() % 2 == 0).count() as u64;
                (group0, total - group0)
            })
            .collect();
        assert!(g_test(all_sparse.iter().copied()).is_none());
    }

    #[test]
    fn g_test_pools_rare_columns() {
        // 50 singleton columns per group would wreck the χ² approximation;
        // pooling collapses them into one bucket → no false positive.
        let mut columns: Vec<(u64, u64)> = Vec::new();
        for index in 0..50 {
            if index % 2 == 0 {
                columns.push((1, 0));
            } else {
                columns.push((0, 1));
            }
        }
        columns.push((1000, 1000));
        let result = g_test(columns.iter().copied()).expect("testable");
        assert_eq!(result.df, 1.0); // big column + pooled bucket
        assert!(result.minus_log10_p < 2.0, "{result:?}");
    }

    #[test]
    fn overflow_bucket_column_carries_evidence_like_any_other() {
        // The campaign's max_table_keys overflow bucket arrives here as
        // one aggregate column. Balanced overflow must not flag; overflow
        // concentrated in one group must.
        let balanced = g_test([(1000, 1000), (500, 505)]).expect("testable");
        assert!(balanced.minus_log10_p < 2.0, "{balanced:?}");
        let skewed = g_test([(1000, 1000), (900, 100)]).expect("testable");
        assert!(skewed.minus_log10_p > 50.0, "{skewed:?}");
    }

    #[test]
    fn g_test_returns_none_when_untestable() {
        assert!(g_test([]).is_none());
        assert!(g_test([(1000, 1000)]).is_none()); // single column
        assert!(g_test([(1000, 0), (1000, 0)]).is_none()); // empty group
    }

    #[test]
    fn g_breakdown_agrees_with_g_test_and_sums_to_the_statistic() {
        let columns: Vec<(u64, u64)> = vec![
            (1000, 200),
            (0, 0), // empty → skipped
            (5, 3), // sparse → pooled
            (200, 950),
            (10, 2), // sparse → pooled
            (400, 420),
        ];
        let breakdown = g_breakdown(&columns).expect("testable");
        let reference = g_test(columns.iter().copied()).expect("testable");
        assert_eq!(breakdown.test, reference);

        assert_eq!(breakdown.fates.len(), columns.len());
        assert_eq!(breakdown.fates[1], ColumnFate::Empty);
        assert_eq!(breakdown.fates[2], ColumnFate::Pooled);
        assert_eq!(breakdown.fates[4], ColumnFate::Pooled);
        assert_eq!(breakdown.pooled_counts, (15, 5));

        let tested_sum: f64 = breakdown
            .fates
            .iter()
            .map(|fate| match fate {
                ColumnFate::Tested { contribution } => *contribution,
                _ => 0.0,
            })
            .sum();
        let total = tested_sum + breakdown.pooled_contribution;
        assert!(
            (total - reference.statistic).abs() < 1e-9,
            "{total} vs {}",
            reference.statistic
        );
    }

    #[test]
    fn g_breakdown_is_untestable_exactly_when_g_test_is() {
        let cases: Vec<Vec<(u64, u64)>> = vec![
            vec![],
            vec![(1000, 1000)],
            vec![(1000, 0), (1000, 0)],
            vec![(5, 3), (2, 4)], // everything pools into one bucket
            vec![(1000, 0), (0, 1000)],
            vec![(30, 10), (10, 30)],
        ];
        for columns in cases {
            assert_eq!(
                g_breakdown(&columns).map(|b| b.test),
                g_test(columns.iter().copied()),
                "{columns:?}"
            );
        }
    }

    #[test]
    fn pooling_summary_agrees_with_g_test() {
        // Two fat columns + three sparse ones: the sparse mass pools.
        let columns = [(100, 110), (90, 80), (3, 2), (0, 1), (4, 4)];
        let summary = pooling_summary(columns);
        assert_eq!(summary.tested_columns, 2);
        assert_eq!(summary.pooled_columns, 3);
        assert_eq!(summary.pooled_mass, 14);
        assert_eq!(summary.total_mass, 394);
        assert!(summary.testable);
        // min expected: the rare bucket (total 14) is the smallest
        // column; row0 = 197, row1 = 197 of 394 → expected 7 each.
        assert!((summary.min_expected - 7.0).abs() < 1e-9, "{summary:?}");
        // Testability matches g_test on testable, untestable, and
        // empty-group tables alike.
        for columns in [
            vec![(100u64, 110u64), (90, 80), (3, 2)],
            vec![(100, 110)],
            vec![(3, 2), (4, 4)],
            vec![(100, 0), (90, 0)],
            vec![],
        ] {
            assert_eq!(
                pooling_summary(columns.iter().copied()).testable,
                g_test(columns.iter().copied()).is_some(),
                "{columns:?}"
            );
        }
    }

    #[test]
    fn g_test_statistic_matches_hand_computation() {
        // Table: [[30, 10], [10, 30]].
        let result = g_test([(30, 10), (10, 30)]).expect("testable");
        let expected: f64 = 2.0
            * (30.0 * (30.0f64 / 20.0).ln()
                + 10.0 * (10.0f64 / 20.0).ln()
                + 10.0 * (10.0f64 / 20.0).ln()
                + 30.0 * (30.0f64 / 20.0).ln());
        assert!((result.statistic - expected).abs() < 1e-9);
        assert_eq!(result.df, 1.0);
    }

    /// The post-pooling columns, collected: what the allocating G-test
    /// and pooling summary that the two-pass folds replaced summed over,
    /// in their order.
    fn collected_pooling(columns: &[(u64, u64)]) -> (Vec<(u64, u64)>, PoolingSummary) {
        let mut summary = PoolingSummary::default();
        let mut pooled: Vec<(u64, u64)> = Vec::new();
        let mut rare = (0u64, 0u64);
        for &(a, b) in columns {
            if a + b == 0 {
                continue;
            }
            summary.total_mass += a + b;
            if a + b < POOLING_THRESHOLD {
                rare.0 += a;
                rare.1 += b;
                summary.pooled_columns += 1;
                summary.pooled_mass += a + b;
            } else {
                summary.tested_columns += 1;
                pooled.push((a, b));
            }
        }
        if rare.0 + rare.1 > 0 {
            pooled.push(rare);
        }
        (pooled, summary)
    }

    /// The allocating G-test and pooling summary, kept as the oracle for
    /// the folds' summation order.
    fn collected_g_test(columns: &[(u64, u64)]) -> (Option<TestOutcome>, PoolingSummary) {
        let (pooled, mut summary) = collected_pooling(columns);
        let row0: u64 = pooled.iter().map(|&(a, _)| a).sum();
        let row1: u64 = pooled.iter().map(|&(_, b)| b).sum();
        if pooled.len() < 2 || row0 == 0 || row1 == 0 {
            return (None, summary);
        }
        summary.testable = true;
        summary.min_expected = f64::INFINITY;
        let total = (row0 + row1) as f64;
        let mut statistic = 0.0;
        for &(a, b) in &pooled {
            let column_total = (a + b) as f64;
            let expected0 = row0 as f64 * column_total / total;
            let expected1 = row1 as f64 * column_total / total;
            summary.min_expected = summary.min_expected.min(expected0).min(expected1);
            if a > 0 {
                statistic += 2.0 * a as f64 * (a as f64 / expected0).ln();
            }
            if b > 0 {
                statistic += 2.0 * b as f64 * (b as f64 / expected1).ln();
            }
        }
        let df = (pooled.len() - 1) as u64;
        let p_value = chi2_sf(statistic, df);
        let test = TestOutcome {
            statistic,
            df: df as f64,
            p_value,
            minus_log10_p: minus_log10_p(p_value),
        };
        (Some(test), summary)
    }

    /// Every field of an outcome as raw bits, so equality is exact.
    fn outcome_bits(outcome: TestOutcome) -> [u64; 4] {
        [
            outcome.statistic.to_bits(),
            outcome.df.to_bits(),
            outcome.p_value.to_bits(),
            outcome.minus_log10_p.to_bits(),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The statistics read a table in place bit for bit as they read
        /// its collected columns: both statistics with no, the table's
        /// own and a foreign overflow bucket, on a dense table and on a
        /// hashed one whose narrow cap pools keys into overflow; and the
        /// streaming G-test and pooling summary against the allocating
        /// versions they replaced.
        #[test]
        fn statistics_read_tables_in_place_bit_for_bit(
            width in 1usize..=10,
            cap in 1usize..=64,
            raw in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), 1u64..64, proptest::prelude::any::<bool>()),
                1..200,
            ),
        ) {
            use crate::tabulate::Table;
            let mask = (1u128 << width) - 1;
            let mut dense = Table::dense(width);
            let mut hashed = Table::sorted(width, cap);
            for &(key, count, random) in &raw {
                let mut cell = [0, 0];
                cell[usize::from(random)] = count;
                dense.absorb(u128::from(key) & mask, cell);
                hashed.absorb(u128::from(key) & mask, cell);
            }
            for table in [&dense, &hashed] {
                let collected: Vec<(u128, [u64; 2])> = table.columns().collect();
                for overflow in [[0, 0], table.overflow(), [40, 10]] {
                    for statistic in [&GTestStatistic as &dyn Statistic, &WelchTStatistic] {
                        proptest::prop_assert_eq!(
                            statistic
                                .evaluate_columns(table.columns(), overflow)
                                .map(outcome_bits),
                            statistic.evaluate(&collected, overflow).map(outcome_bits)
                        );
                    }
                    let pairs: Vec<(u64, u64)> =
                        g_columns(Columns::from(collected.as_slice()), overflow).collect();
                    let streamed = || g_columns(table.columns(), overflow);
                    let (test, reference) = collected_g_test(&pairs);
                    proptest::prop_assert_eq!(
                        g_test(streamed()).map(outcome_bits),
                        test.map(outcome_bits)
                    );
                    let summary = pooling_summary(streamed());
                    proptest::prop_assert_eq!(
                        summary.min_expected.to_bits(),
                        reference.min_expected.to_bits()
                    );
                    proptest::prop_assert_eq!(summary, reference);
                }
            }
        }
    }
}
