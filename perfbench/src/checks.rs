//! Output checks, computed apart from the engines.
//!
//! Each check is a pure function of values the benchmark reads back from
//! a finished execution (final token sets, meters, counters) and values it
//! derives itself (the token universe from the assignment, `TC` from its
//! own adversary replay). None compares against a stored copy of an
//! earlier output. A check returns `Err` with a one-line reason; any
//! failed check counts its execution as failed.

use dynspread_sim::token::{TokenAssignment, TokenSet};
use dynspread_sim::NodeId;

/// The result of one check.
pub type Check = Result<(), String>;

/// The token universe of an assignment: every token some node holds at
/// the start.
pub fn universe(assignment: &TokenAssignment) -> TokenSet {
    let mut u = TokenSet::new(assignment.token_count());
    for v in NodeId::all(assignment.node_count()) {
        u.union_with(&assignment.initial_knowledge(v));
    }
    u
}

/// The (node, token) pairs missing at the start: the learnings a full
/// dissemination must observe.
pub fn missing_pairs(assignment: &TokenAssignment) -> u64 {
    let u = universe(assignment).count();
    NodeId::all(assignment.node_count())
        .map(|v| (u - assignment.initial_knowledge(v).count()) as u64)
        .sum()
}

/// Every node's final token set equals the universe.
pub fn full_knowledge<'a>(
    universe: &TokenSet,
    finals: impl IntoIterator<Item = &'a TokenSet>,
) -> Check {
    let mut nodes = 0usize;
    for (v, known) in finals.into_iter().enumerate() {
        nodes += 1;
        if known != universe {
            return Err(format!(
                "node {v} ends with {} of {} tokens",
                known.count(),
                universe.count()
            ));
        }
    }
    if nodes == 0 {
        return Err("no final token sets to check".into());
    }
    Ok(())
}

/// The observed learnings equal the pairs missing at the start.
pub fn learnings(observed: u64, expected: u64) -> Check {
    if observed == expected {
        Ok(())
    } else {
        Err(format!("{observed} learnings, expected {expected}"))
    }
}

/// Every learning needs one token-class message.
pub fn token_messages_cover_learnings(token_msgs: u64, learnings: u64) -> Check {
    if token_msgs >= learnings {
        Ok(())
    } else {
        Err(format!(
            "{token_msgs} token messages for {learnings} learnings"
        ))
    }
}

/// The engine's topology meter equals the benchmark's own replay of the
/// oblivious adversary.
pub fn tc_matches_replay(engine_tc: u64, replay_tc: u64) -> Check {
    if engine_tc == replay_tc {
        Ok(())
    } else {
        Err(format!("engine TC {engine_tc} != replay TC {replay_tc}"))
    }
}

/// Theorems 3.1 and 3.5: `messages − TC ≤ 4·(n²s + nk)`.
pub fn message_bound(messages: u64, tc: u64, n: u64, s: u64, k: u64) -> Check {
    let bound = 4 * (n * n * s + n * k);
    if messages.saturating_sub(tc) <= bound {
        Ok(())
    } else {
        Err(format!(
            "messages − TC = {} exceeds 4(n²s + nk) = {bound}",
            messages - tc
        ))
    }
}

/// Theorem 3.4: Algorithm 1 completes within `8nk` rounds.
pub fn round_bound(rounds: u64, n: u64, k: u64) -> Check {
    if rounds <= 8 * n * k {
        Ok(())
    } else {
        Err(format!("{rounds} rounds exceed 8nk = {}", 8 * n * k))
    }
}

/// Local broadcast: at most one broadcast per node per round.
pub fn broadcasts_per_round(per_round: impl IntoIterator<Item = u64>, n: u64) -> Check {
    for (r, b) in per_round.into_iter().enumerate() {
        if b > n {
            return Err(format!("round {}: {b} broadcasts by {n} nodes", r + 1));
        }
    }
    Ok(())
}

/// The observed drop share is within `z` standard errors of `p`.
pub fn drop_share(dropped: u64, planned: u64, p: f64, z: f64) -> Check {
    if planned == 0 {
        return Err("no transmissions reached the link".into());
    }
    let share = dropped as f64 / planned as f64;
    let se = (p * (1.0 - p) / planned as f64).sqrt();
    if (share - p).abs() <= z * se {
        Ok(())
    } else {
        Err(format!(
            "drop share {share:.5} over {planned} transmissions is more than {z} SE ({se:.5}) from {p}"
        ))
    }
}

/// The session layer decoded every envelope and dispatched each to a
/// live session.
pub fn wire_clean(decode_errors: u64, foreign_drops: u64) -> Check {
    if decode_errors == 0 && foreign_drops == 0 {
        Ok(())
    } else {
        Err(format!(
            "{decode_errors} decode errors, {foreign_drops} foreign drops"
        ))
    }
}

/// Two executions of one seed give identical seed-pure metrics.
pub fn replay_identity<T: PartialEq + std::fmt::Debug>(first: &T, this: &T) -> Check {
    if first == this {
        Ok(())
    } else {
        Err(format!("seed-pure outcome {this:?} differs from {first:?}"))
    }
}

#[cfg(test)]
mod tests {
    //! Checks of the checks: each check passes on a correct outcome and
    //! fails on a corrupted one, so none can pass by comparing nothing.
    use super::*;
    use dynspread_sim::token::TokenId;

    fn single_source() -> TokenAssignment {
        TokenAssignment::single_source(5, 3, NodeId::new(0))
    }

    #[test]
    fn universe_and_missing_pairs_follow_the_assignment() {
        let a = single_source();
        assert_eq!(universe(&a), TokenSet::full(3));
        assert_eq!(missing_pairs(&a), 4 * 3);
        let multi = TokenAssignment::round_robin_sources(6, 4, 2);
        assert_eq!(missing_pairs(&multi), 6 * 4 - 4);
    }

    #[test]
    fn full_knowledge_fails_when_one_node_misses_one_token() {
        let u = universe(&single_source());
        let mut finals = vec![u.clone(); 5];
        assert!(full_knowledge(&u, &finals).is_ok());
        finals[3].remove(TokenId::new(1));
        let err = full_knowledge(&u, &finals).unwrap_err();
        assert!(err.contains("node 3"), "{err}");
        assert!(full_knowledge(&u, &Vec::<TokenSet>::new()).is_err());
    }

    #[test]
    fn learnings_fail_when_off_by_one() {
        let expected = missing_pairs(&single_source());
        assert!(learnings(expected, expected).is_ok());
        assert!(learnings(expected - 1, expected).is_err());
        assert!(learnings(expected + 1, expected).is_err());
    }

    #[test]
    fn tc_fails_when_it_differs_from_the_replay() {
        assert!(tc_matches_replay(812, 812).is_ok());
        assert!(tc_matches_replay(813, 812).is_err());
    }

    #[test]
    fn nonzero_decode_errors_fail() {
        assert!(wire_clean(0, 0).is_ok());
        assert!(wire_clean(1, 0).is_err());
        assert!(wire_clean(0, 1).is_err());
    }

    #[test]
    fn theorem_bounds_fail_past_the_bound() {
        assert!(token_messages_cover_learnings(12, 12).is_ok());
        assert!(token_messages_cover_learnings(11, 12).is_err());
        let (n, s, k) = (10, 1, 4);
        let bound = 4 * (n * n * s + n * k);
        assert!(message_bound(bound + 7, 7, n, s, k).is_ok());
        assert!(message_bound(bound + 8, 7, n, s, k).is_err());
        assert!(round_bound(8 * n * k, n, k).is_ok());
        assert!(round_bound(8 * n * k + 1, n, k).is_err());
        assert!(broadcasts_per_round([3, 5, 5], 5).is_ok());
        assert!(broadcasts_per_round([3, 6, 5], 5).is_err());
    }

    #[test]
    fn drop_share_fails_far_from_p() {
        assert!(drop_share(1_000, 10_000, 0.1, 5.0).is_ok());
        assert!(drop_share(1_200, 10_000, 0.1, 5.0).is_err());
        assert!(drop_share(0, 0, 0.1, 5.0).is_err());
    }

    #[test]
    fn replay_identity_fails_on_any_difference() {
        assert!(replay_identity(&(1u64, 2u64), &(1, 2)).is_ok());
        assert!(replay_identity(&(1u64, 2u64), &(1, 3)).is_err());
    }
}
