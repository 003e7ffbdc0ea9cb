//! A compact CDCL SAT solver: two-watched-literal propagation, first-UIP
//! clause learning, activity-based (VSIDS-style) decisions, Luby restarts.
//!
//! Built for the miter instances the oracle-guided SAT attack generates
//! (thousands of variables) — clarity over raw speed, and correctness
//! cross-checked against brute force on randomized formulas in the tests.

/// A propositional variable (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: variable plus sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    #[must_use]
    pub fn pos(v: Var) -> Self {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    #[must_use]
    pub fn neg(v: Var) -> Self {
        Lit(v.0 << 1 | 1)
    }

    /// Literal of `v` with the given polarity (`true` ⇒ positive).
    #[must_use]
    pub fn with_sign(v: Var, sign: bool) -> Self {
        if sign {
            Self::pos(v)
        } else {
            Self::neg(v)
        }
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True for positive literals.
    #[must_use]
    pub fn sign(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Self {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with one model (`model[v]` is the value of variable v).
    Sat(Vec<bool>),
    /// Unsatisfiable under the given assumptions.
    Unsat,
}

impl SolveResult {
    /// True when satisfiable.
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
}

/// The CDCL solver. Clauses are added incrementally; `solve` may be called
/// repeatedly with different assumptions (the SAT-attack loop relies on
/// both).
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<u32>>, // literal index -> clause indices
    assign: Vec<i8>,        // var -> -1 unassigned / 0 false / 1 true
    level: Vec<u32>,
    reason: Vec<i32>, // clause index or -1
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    queue_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    seen: Vec<bool>,
    ok: bool,
    conflicts: u64,
}

impl Solver {
    /// Creates an empty solver.
    #[must_use]
    pub fn new() -> Self {
        Self {
            act_inc: 1.0,
            ok: true,
            ..Self::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(-1);
        self.level.push(0);
        self.reason.push(-1);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Total conflicts encountered (diagnostics).
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    fn value(&self, l: Lit) -> i8 {
        let a = self.assign[l.var().0 as usize];
        if a < 0 {
            -1
        } else if (a == 1) == l.sign() {
            1
        } else {
            0
        }
    }

    /// Adds a clause. Returns `false` when the solver is already
    /// inconsistent (empty clause derived at level 0).
    ///
    /// # Panics
    ///
    /// Panics when called below decision level 0 mid-solve (internal use
    /// keeps clause addition at the root).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(self.trail_lim.is_empty(), "add clauses at the root level");
        if !self.ok {
            return false;
        }
        // Root-level simplification: drop false lits, detect tautology.
        let mut simplified: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.value(l) {
                1 => return true, // already satisfied
                0 => continue,    // false at root: drop
                _ => {
                    if simplified.contains(&l.negate()) {
                        return true; // tautology
                    }
                    if !simplified.contains(&l) {
                        simplified.push(l);
                    }
                }
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], -1);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach(simplified, false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].negate().index()].push(idx);
        self.watches[lits[1].negate().index()].push(idx);
        self.clauses.push(Clause { lits, learnt });
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: i32) {
        debug_assert!(self.value(l) == -1);
        let v = l.var().0 as usize;
        self.assign[v] = i8::from(l.sign());
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause index on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.queue_head < self.trail.len() {
            let p = self.trail[self.queue_head];
            self.queue_head += 1;
            // Clauses watching ¬p must be inspected.
            let mut i = 0;
            let watch_key = p.index();
            while i < self.watches[watch_key].len() {
                let ci = self.watches[watch_key][i];
                let clause = &mut self.clauses[ci as usize];
                // Normalise: watched lits are positions 0 and 1.
                if clause.lits[0].negate() == p {
                    clause.lits.swap(0, 1);
                }
                debug_assert_eq!(clause.lits[1].negate(), p);
                let first = clause.lits[0];
                let first_val = {
                    let a = self.assign[first.var().0 as usize];
                    if a < 0 {
                        -1
                    } else if (a == 1) == first.sign() {
                        1
                    } else {
                        0
                    }
                };
                if first_val == 1 {
                    i += 1;
                    continue; // clause satisfied
                }
                // Look for a new watch.
                let mut found = false;
                for k in 2..clause.lits.len() {
                    let lk = clause.lits[k];
                    let a = self.assign[lk.var().0 as usize];
                    let val = if a < 0 {
                        -1
                    } else if (a == 1) == lk.sign() {
                        1
                    } else {
                        0
                    };
                    if val != 0 {
                        clause.lits.swap(1, k);
                        let new_watch = clause.lits[1].negate().index();
                        self.watches[new_watch].push(ci);
                        self.watches[watch_key].swap_remove(i);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Unit or conflict.
                if first_val == 0 {
                    self.queue_head = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, ci as i32);
                i += 1;
            }
        }
        None
    }

    /// First-UIP conflict analysis: returns (learnt clause, backjump level).
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot for the asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause_idx = conflict as i32;
        let mut trail_pos = self.trail.len();
        let current_level = self.trail_lim.len() as u32;

        loop {
            debug_assert!(clause_idx >= 0);
            let clause = &self.clauses[clause_idx as usize];
            let start = usize::from(p.is_some());
            let lits: Vec<Lit> = clause.lits[start..].to_vec();
            if self.clauses[clause_idx as usize].learnt {
                self.bump_clause_activity();
            }
            for q in lits {
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_pos -= 1;
                if self.seen[self.trail[trail_pos].var().0 as usize] {
                    break;
                }
            }
            let pl = self.trail[trail_pos];
            let v = pl.var().0 as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            clause_idx = self.reason[v];
            p = Some(pl);
        }
        learnt[0] = p.expect("first UIP exists").negate();
        // Backjump level: highest level among the other lits.
        let mut bj = 0u32;
        for &l in &learnt[1..] {
            bj = bj.max(self.level[l.var().0 as usize]);
        }
        for &l in &learnt[1..] {
            self.seen[l.var().0 as usize] = false;
        }
        // Move a literal of the backjump level into watch position 1.
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().0 as usize]
                    > self.level[learnt[max_i].var().0 as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
        }
        (learnt, bj)
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.act_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    fn bump_clause_activity(&mut self) {}

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail non-empty");
                let v = l.var().0 as usize;
                self.assign[v] = -1;
                self.reason[v] = -1;
            }
        }
        self.queue_head = self.trail.len().min(self.queue_head);
        self.queue_head = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<usize> = None;
        for v in 0..self.assign.len() {
            if self.assign[v] < 0 {
                match best {
                    None => best = Some(v),
                    Some(b) if self.activity[v] > self.activity[b] => best = Some(v),
                    _ => {}
                }
            }
        }
        best.map(|v| Lit::neg(Var(v as u32))) // negative-first polarity
    }

    /// Solves under the given assumptions.
    ///
    /// The solver state (learnt clauses, activities) persists across
    /// calls; assumptions do not.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        let mut restart_interval = 64u64;
        let mut conflicts_until_restart = restart_interval;

        // Assumption handling: decide assumptions first, in order.
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                if self.trail_lim.is_empty() {
                    // Root-level conflict: the clause set itself is
                    // unsatisfiable — remember it across solve calls.
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                // Conflict while only assumption levels are open ⇒ UNSAT
                // under these assumptions (but not necessarily globally).
                if self.trail_lim.len() <= self.assumed_levels(assumptions) {
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                let (learnt, bj) = self.analyze(conflict);
                self.cancel_until(bj);
                let assert_lit = learnt[0];
                if learnt.len() == 1 {
                    // Learnt units live at the root.
                    self.cancel_until(0);
                    match self.value(assert_lit) {
                        0 => {
                            self.ok = false;
                            return SolveResult::Unsat;
                        }
                        -1 => self.enqueue(assert_lit, -1),
                        _ => {}
                    }
                } else {
                    let ci = self.attach(learnt.clone(), true);
                    if self.value(learnt[0]) == -1 {
                        self.enqueue(learnt[0], ci as i32);
                    }
                }
                self.act_inc /= 0.95;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if conflicts_until_restart == 0 {
                    restart_interval = (restart_interval * 3) / 2;
                    conflicts_until_restart = restart_interval;
                    self.cancel_until(0);
                }
                continue;
            }
            // Place any pending assumption.
            let assumed = self.trail_lim.len();
            if assumed < assumptions.len() {
                let a = assumptions[assumed];
                match self.value(a) {
                    1 => {
                        // Already implied: open an empty decision level so
                        // the bookkeeping (one level per assumption) holds.
                        self.trail_lim.push(self.trail.len());
                    }
                    0 => {
                        self.cancel_until(0);
                        return SolveResult::Unsat;
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, -1);
                    }
                }
                continue;
            }
            // Regular decision.
            match self.decide() {
                None => {
                    let model: Vec<bool> = self.assign.iter().map(|&a| a == 1).collect();
                    self.cancel_until(0);
                    return SolveResult::Sat(model);
                }
                Some(l) => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(l, -1);
                }
            }
        }
    }

    fn assumed_levels(&self, assumptions: &[Lit]) -> usize {
        assumptions.len().min(self.trail_lim.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn lits(solver_vars: &[Var], spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&s| {
                let v = solver_vars[(s.unsigned_abs() - 1) as usize];
                Lit::with_sign(v, s > 0)
            })
            .collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a)]));
        assert!(s.solve(&[]).is_sat());
        assert!(!s.add_clause(&[Lit::neg(a)]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        // a ∧ (¬a∨b) ∧ (¬b∨c) ∧ (¬c∨d)
        s.add_clause(&lits(&vars, &[1]));
        s.add_clause(&lits(&vars, &[-1, 2]));
        s.add_clause(&lits(&vars, &[-2, 3]));
        s.add_clause(&lits(&vars, &[-3, 4]));
        match s.solve(&[]) {
            SolveResult::Sat(m) => {
                assert!(m[0] && m[1] && m[2] && m[3]);
            }
            SolveResult::Unsat => panic!("satisfiable"),
        }
    }

    #[test]
    fn xor_chain_requires_search() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 ⊕ x3 = 1 is UNSAT (odd cycle).
        let mut s = Solver::new();
        let v: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let xor1 = |s: &mut Solver, a: usize, b: usize| {
            s.add_clause(&[Lit::pos(v[a]), Lit::pos(v[b])]);
            s.add_clause(&[Lit::neg(v[a]), Lit::neg(v[b])]);
        };
        xor1(&mut s, 0, 1);
        xor1(&mut s, 1, 2);
        xor1(&mut s, 0, 2);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for i in 0..3 {
            for j in i + 1..3 {
                for (a, b) in p[i].iter().zip(&p[j]) {
                    s.add_clause(&[Lit::neg(*a), Lit::neg(*b)]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        // Assume ¬a ∧ ¬b: unsat.
        assert_eq!(s.solve(&[Lit::neg(a), Lit::neg(b)]), SolveResult::Unsat);
        // Without assumptions still sat.
        assert!(s.solve(&[]).is_sat());
        // Assume ¬a: b must hold.
        match s.solve(&[Lit::neg(a)]) {
            SolveResult::Sat(m) => assert!(m[b.0 as usize]),
            SolveResult::Unsat => panic!("satisfiable"),
        }
    }

    #[test]
    fn solve_is_idempotent_after_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::pos(a), Lit::neg(b)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        // A second query must not hallucinate a model.
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert_eq!(s.solve(&[Lit::pos(a)]), SolveResult::Unsat);
    }

    #[test]
    fn solve_is_repeatable_after_sat() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        s.add_clause(&lits(&vars, &[1, 2]));
        s.add_clause(&lits(&vars, &[-1, 3]));
        s.add_clause(&lits(&vars, &[-3, -2, 4]));
        for _ in 0..3 {
            assert!(s.solve(&[]).is_sat());
        }
    }

    /// Incremental usage cross-check: interleave clause additions and
    /// solve calls, comparing against brute force at every step.
    #[test]
    fn randomized_incremental_cross_check() {
        let mut rng = StdRng::seed_from_u64(777);
        for round in 0..40 {
            let nvars = 4 + (round % 5);
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
            let mut formula: Vec<Vec<(usize, bool)>> = Vec::new();
            let mut consistent = true;
            for _step in 0..(nvars * 5) {
                let mut clause = Vec::new();
                for _ in 0..rng.gen_range(1..4) {
                    clause.push((rng.gen_range(0..nvars), rng.gen::<bool>()));
                }
                let lits: Vec<Lit> = clause
                    .iter()
                    .map(|&(v, sign)| Lit::with_sign(vars[v], sign))
                    .collect();
                consistent &= s.add_clause(&lits);
                formula.push(clause);
                // Brute force current formula.
                let mut any = false;
                'bf: for m in 0..(1u32 << nvars) {
                    for clause in &formula {
                        if !clause.iter().any(|&(v, sign)| ((m >> v) & 1 == 1) == sign) {
                            continue 'bf;
                        }
                    }
                    any = true;
                    break;
                }
                let got = if consistent {
                    s.solve(&[]).is_sat()
                } else {
                    false
                };
                assert_eq!(got, any, "round {round} after {} clauses", formula.len());
                if !any {
                    break;
                }
            }
        }
    }

    /// Brute-force cross-check on random 3-SAT instances near the phase
    /// transition — the strongest correctness test for a CDCL core.
    #[test]
    fn randomized_cross_check_against_brute_force() {
        let mut rng = StdRng::seed_from_u64(12345);
        for round in 0..120 {
            let nvars = 3 + (round % 8);
            let nclauses = (nvars as f64 * 4.2) as usize;
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
            let mut formula: Vec<Vec<(usize, bool)>> = Vec::new();
            let mut consistent = true;
            for _ in 0..nclauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    clause.push((rng.gen_range(0..nvars), rng.gen::<bool>()));
                }
                let lits: Vec<Lit> = clause
                    .iter()
                    .map(|&(v, sign)| Lit::with_sign(vars[v], sign))
                    .collect();
                consistent &= s.add_clause(&lits);
                formula.push(clause);
            }
            // Brute force.
            let mut any = false;
            'outer: for m in 0..(1u32 << nvars) {
                for clause in &formula {
                    let sat = clause.iter().any(|&(v, sign)| ((m >> v) & 1 == 1) == sign);
                    if !sat {
                        continue 'outer;
                    }
                }
                any = true;
                break;
            }
            let got = if consistent {
                s.solve(&[])
            } else {
                SolveResult::Unsat
            };
            match (&got, any) {
                (SolveResult::Sat(model), true) => {
                    // Verify the model actually satisfies the formula.
                    for clause in &formula {
                        assert!(
                            clause
                                .iter()
                                .any(|&(v, sign)| model[vars[v].0 as usize] == sign),
                            "round {round}: bogus model"
                        );
                    }
                }
                (SolveResult::Unsat, false) => {}
                (r, expect) => {
                    panic!("round {round}: solver {r:?} vs brute-force sat={expect}")
                }
            }
        }
    }
}
