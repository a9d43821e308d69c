//! The seeded load generator. The request stream and the write
//! sequence are pure functions of the workload seed and of the sizes of
//! the key sets they draw from; nothing here looks at a clock or at the
//! server.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf sampler over ranks `0..n` (rank 0 is the most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Skew of the parameter keys: a few hot ASes, domains and prefixes,
/// and a long tail.
pub const ZIPF_EXPONENT: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Lookup,
    Analytic,
}

/// Which key set a parameterised template draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySet {
    Asn,
    Domain,
    Prefix,
}

pub struct Template {
    pub name: &'static str,
    pub class: Class,
    pub text: &'static str,
    /// `$name` and key set of the one parameter, if any.
    pub param: Option<(&'static str, KeySet)>,
}

/// The prefixes an AS originates (`$asn`).
pub const AS_PREFIXES: &str =
    "MATCH (a:AS {asn: $asn})-[:ORIGINATE]-(p:Prefix) RETURN DISTINCT p.prefix AS prefix";

const LISTING_1: &str = "MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn";
const LISTING_2: &str = "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) \
     WHERE x.asn <> y.asn RETURN DISTINCT p.prefix";
const LISTING_3: &str = "MATCH (org:Organization)-[:MANAGED_BY]-(:AS)-[:ORIGINATE]-(pfx:Prefix)\
     -[:CATEGORIZED]-(:Tag {label:'RPKI Valid'}) WHERE org.name = 'CERN' \
     MATCH (pfx)-[:PART_OF]-(:IP)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(h:HostName) \
     RETURN distinct h.name";
const LISTING_4: &str =
    "MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(:DomainName)-[:PART_OF]-(:HostName)\
     -[:RESOLVES_TO]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag) \
     WHERE t.label STARTS WITH 'RPKI Invalid' RETURN count(DISTINCT pfx)";
const LISTING_5: &str = "MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)\
     -[:MANAGED_BY]-(a:AuthoritativeNameServer)-[:RESOLVES_TO]-(i:IP {af:4}) \
     RETURN d.name, a.name, collect(DISTINCT i.ip)";
const LISTING_6: &str = "MATCH (r:Ranking {name: 'Tranco top 1M'})-[:RANK]-(d:DomainName)\
     -[:MANAGED_BY]-(a:AuthoritativeNameServer)-[:RESOLVES_TO]-(i:IP {af:4})-[:PART_OF]-(pfx:Prefix) \
     RETURN d, COLLECT(DISTINCT pfx)";

/// Every read request the benchmark sends. Lookups first: point
/// queries keyed by one parameter, then the paper's cheap global
/// listings; analytic study queries after them.
pub const TEMPLATES: &[Template] = &[
    Template {
        name: "as_prefixes",
        class: Class::Lookup,
        text: AS_PREFIXES,
        param: Some(("asn", KeySet::Asn)),
    },
    Template {
        name: "domain_nameservers",
        class: Class::Lookup,
        text: "MATCH (d:DomainName {name: $name})-[:MANAGED_BY]-(a:AuthoritativeNameServer) \
               RETURN DISTINCT a.name AS ns",
        param: Some(("name", KeySet::Domain)),
    },
    Template {
        name: "prefix_origin_rpki",
        class: Class::Lookup,
        text: "MATCH (p:Prefix {prefix: $prefix})-[o:ORIGINATE]-(a:AS) \
               OPTIONAL MATCH (p)-[:CATEGORIZED]-(t:Tag) \
               RETURN a.asn AS asn, o.reference_name AS source, collect(DISTINCT t.label) AS tags",
        param: Some(("prefix", KeySet::Prefix)),
    },
    Template {
        name: "listing_1",
        class: Class::Lookup,
        text: LISTING_1,
        param: None,
    },
    Template {
        name: "listing_2",
        class: Class::Lookup,
        text: LISTING_2,
        param: None,
    },
    Template {
        name: "listing_3",
        class: Class::Lookup,
        text: LISTING_3,
        param: None,
    },
    Template {
        name: "prefix_rpki",
        class: Class::Lookup,
        text: iyp_core::studies::ripki::Q_PREFIX_RPKI,
        param: None,
    },
    Template {
        name: "origin_disagreement",
        class: Class::Lookup,
        text: iyp_core::studies::compare::Q_ORIGIN_DISAGREEMENT,
        param: None,
    },
    Template {
        name: "listing_4",
        class: Class::Analytic,
        text: LISTING_4,
        param: None,
    },
    Template {
        name: "listing_5",
        class: Class::Analytic,
        text: LISTING_5,
        param: None,
    },
    Template {
        name: "listing_6",
        class: Class::Analytic,
        text: LISTING_6,
        param: None,
    },
    Template {
        name: "dependency_edges",
        class: Class::Analytic,
        text: iyp_core::studies::spof::Q_DEPENDENCY_EDGES,
        param: None,
    },
    Template {
        name: "zone_hosting",
        class: Class::Analytic,
        text: iyp_core::studies::spof::Q_ZONE_HOSTING,
        param: None,
    },
    Template {
        name: "ns_bgp_prefixes",
        class: Class::Analytic,
        text: iyp_core::studies::dns_robustness::Q_NS_BGP_PREFIXES,
        param: None,
    },
    Template {
        name: "domain_ns_ips",
        class: Class::Analytic,
        text: iyp_core::studies::dns_robustness::Q_DOMAIN_NS_IPS,
        param: None,
    },
];

const PARAM_LOOKUPS: [usize; 3] = [0, 1, 2];
const FIXED_LOOKUPS: [usize; 5] = [3, 4, 5, 6, 7];
const ANALYTICS: [usize; 7] = [8, 9, 10, 11, 12, 13, 14];

/// One drawn request: a template and, for parameterised templates, the
/// Zipf rank of its key (0 otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Draw {
    pub template: usize,
    pub rank: usize,
}

/// Requests per block. Each block holds exactly `ANALYTIC_PER_BLOCK`
/// analytic and the rest lookup requests in seeded order, so every
/// seed yields the same number of requests of each class and template:
/// the seed moves the order and the keys, not the mix.
const BLOCK: usize = 10;
const ANALYTIC_PER_BLOCK: usize = 5;

/// A deck that deals its cards in a seeded order and reshuffles when
/// empty.
struct Deck<'a> {
    cards: &'a [usize],
    order: Vec<usize>,
}

impl<'a> Deck<'a> {
    fn new(cards: &'a [usize]) -> Deck<'a> {
        Deck {
            cards,
            order: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.order.is_empty() {
            self.order = self.cards.to_vec();
            rng.shuffle(&mut self.order);
        }
        self.order.pop().expect("refilled above")
    }
}

/// The read stream: `len` draws. `key_counts` are the sizes of the
/// ASN, domain and prefix key sets.
pub fn generate(seed: u64, len: usize, key_counts: [usize; 3]) -> Vec<Draw> {
    let mut rng = Rng::new(seed);
    let zipfs: Vec<Zipf> = key_counts
        .iter()
        .map(|&n| Zipf::new(n, ZIPF_EXPONENT))
        .collect();
    // Analytic templates rotate in a fixed order from a seeded phase.
    // How the kernel acknowledges a response depends on the size of the
    // one before it on the connection; a seed-shuffled order made cache
    // hits on `cached_mix` differ by a third from seed to seed.
    let mut analytic = rng.below(ANALYTICS.len());
    let mut fixed = Deck::new(&FIXED_LOOKUPS);
    // Per block of lookups: mostly keyed point queries, one listing.
    let lookup_kinds: [usize; 5] = [0, 1, 2, 0, usize::MAX];
    let mut lookups = Deck::new(&lookup_kinds);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut slots = [Class::Lookup; BLOCK];
        for s in slots.iter_mut().take(ANALYTIC_PER_BLOCK) {
            *s = Class::Analytic;
        }
        rng.shuffle(&mut slots);
        for class in slots {
            let draw = match class {
                Class::Analytic => {
                    analytic += 1;
                    Draw {
                        template: ANALYTICS[analytic % ANALYTICS.len()],
                        rank: 0,
                    }
                }
                Class::Lookup => match lookups.deal(&mut rng) {
                    usize::MAX => Draw {
                        template: fixed.deal(&mut rng),
                        rank: 0,
                    },
                    t => Draw {
                        template: PARAM_LOOKUPS[t],
                        rank: zipfs[key_set_index(t)].sample(&mut rng),
                    },
                },
            };
            out.push(draw);
        }
    }
    out.truncate(len);
    out
}

fn key_set_index(template: usize) -> usize {
    match TEMPLATES[template].param {
        Some((_, KeySet::Asn)) => 0,
        Some((_, KeySet::Domain)) => 1,
        Some((_, KeySet::Prefix)) => 2,
        None => unreachable!("only parameterised templates draw keys"),
    }
}

/// The private/public join the local-instance reader runs: study tags
/// (private) joined with BGP origins (public).
pub const TAG_JOIN: &str = "MATCH (:Tag {label: 'local.study'})-[:CATEGORIZED]-(a:AS)\
     -[:ORIGINATE]-(p:Prefix) RETURN count(DISTINCT p) AS prefixes";

/// Lists every study link after recovery.
pub const STUDY_LINKS: &str = "MATCH (:Tag {label: 'local.study'})-[r:CATEGORIZED]-(x) \
     RETURN r.note AS note, r.annotation AS annotation";

const TAG_AS: &str = "MATCH (a:AS {asn: $asn}) MERGE (t:Tag {label: 'local.study'}) \
     MERGE (a)-[:CATEGORIZED {reference_name: 'local.study', note: $note}]->(t)";
const TAG_DOMAIN: &str = "MATCH (d:DomainName {name: $name}) MERGE (t:Tag {label: 'local.study'}) \
     MERGE (d)-[:CATEGORIZED {reference_name: 'local.study', note: $note}]->(t)";
const ANNOTATE: &str = "MATCH (:Tag {label: 'local.study'})-[r:CATEGORIZED {note: $note}]-() \
     SET r.annotation = $value";
const BATCH_IMPORT: &str = "UNWIND $asns AS asn MATCH (a:AS {asn: asn}) \
     MERGE (t:Tag {label: 'local.study'}) \
     MERGE (a)-[:CATEGORIZED {reference_name: 'local.study', note: $note}]->(t)";
const UNTAG: &str = "MATCH (:Tag {label: 'local.study'})-[r:CATEGORIZED {note: $note}]-() DELETE r";

/// ASes per UNWIND batch import.
pub const BATCH_SIZE: usize = 8;

/// A parameter value of a write.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    Int(i64),
    Str(String),
    Ints(Vec<i64>),
}

/// What a write does to the study links, as the tag-join and recovery
/// checks expect it.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Adds `links` links carrying `note`, from the ASes `asns` (empty
    /// for a domain tag).
    Tag {
        note: String,
        links: usize,
        asns: Vec<i64>,
    },
    /// Sets `annotation = value` on every link carrying `note`.
    Annotate { note: String, value: i64 },
    /// Removes every link carrying `note`.
    Untag { note: String },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Write {
    pub text: &'static str,
    pub args: Vec<(&'static str, Arg)>,
    pub effect: Effect,
}

/// The §6.1 write sequence: `n` writes that tag ASes and domains with a
/// private `local.study` tag, annotate and batch-import such tags, and
/// delete earlier ones. `asns` and `domains` are the key sets.
pub fn plan_writes(seed: u64, n: usize, asns: &[i64], domains: &[String]) -> Vec<Write> {
    // Its own stream, so the read stream does not shift when the write
    // plan changes.
    let mut rng = Rng::new(seed ^ 0x5752_4954_4553);
    // Tag AS, tag domain, annotate, batch import, untag: one of each
    // per five writes.
    let mut kinds = Deck::new(&[0, 1, 2, 3, 4]);
    // Notes of live links a later write may annotate or delete.
    let mut live: Vec<String> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let note = format!("w{i}");
        let kind = match kinds.deal(&mut rng) {
            2 | 4 if live.is_empty() => 0,
            k => k,
        };
        let write = match kind {
            0 => {
                let asn = asns[rng.below(asns.len())];
                Write {
                    text: TAG_AS,
                    args: vec![("asn", Arg::Int(asn)), ("note", Arg::Str(note.clone()))],
                    effect: Effect::Tag {
                        note: note.clone(),
                        links: 1,
                        asns: vec![asn],
                    },
                }
            }
            1 => Write {
                text: TAG_DOMAIN,
                args: vec![
                    ("name", Arg::Str(domains[rng.below(domains.len())].clone())),
                    ("note", Arg::Str(note.clone())),
                ],
                effect: Effect::Tag {
                    note: note.clone(),
                    links: 1,
                    asns: Vec::new(),
                },
            },
            2 => {
                let target = live[rng.below(live.len())].clone();
                Write {
                    text: ANNOTATE,
                    args: vec![
                        ("note", Arg::Str(target.clone())),
                        ("value", Arg::Int(i as i64)),
                    ],
                    effect: Effect::Annotate {
                        note: target,
                        value: i as i64,
                    },
                }
            }
            3 => {
                let mut picked: Vec<i64> = Vec::with_capacity(BATCH_SIZE);
                while picked.len() < BATCH_SIZE.min(asns.len()) {
                    let asn = asns[rng.below(asns.len())];
                    if !picked.contains(&asn) {
                        picked.push(asn);
                    }
                }
                Write {
                    text: BATCH_IMPORT,
                    args: vec![
                        ("asns", Arg::Ints(picked.clone())),
                        ("note", Arg::Str(note.clone())),
                    ],
                    effect: Effect::Tag {
                        note: note.clone(),
                        links: picked.len(),
                        asns: picked,
                    },
                }
            }
            _ => {
                let target = live.swap_remove(rng.below(live.len()));
                Write {
                    text: UNTAG,
                    args: vec![("note", Arg::Str(target.clone()))],
                    effect: Effect::Untag { note: target },
                }
            }
        };
        if let Effect::Tag { note, .. } = &write.effect {
            live.push(note.clone());
        }
        out.push(write);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_yields_the_same_stream() {
        let counts = [600, 20_000, 1_300];
        assert_eq!(generate(7, 500, counts), generate(7, 500, counts));
        assert_ne!(generate(7, 500, counts), generate(8, 500, counts));
        let asns: Vec<i64> = (1..=50).collect();
        let domains: Vec<String> = (0..50).map(|i| format!("d{i}.com")).collect();
        assert_eq!(
            plan_writes(7, 60, &asns, &domains),
            plan_writes(7, 60, &asns, &domains)
        );
    }

    #[test]
    fn every_seed_sends_the_same_mix() {
        for seed in 0..5 {
            let s = generate(seed, 700, [600, 20_000, 1_300]);
            let analytic = s
                .iter()
                .filter(|d| TEMPLATES[d.template].class == Class::Analytic)
                .count();
            assert_eq!(analytic, 350);
            for t in ANALYTICS {
                assert_eq!(s.iter().filter(|d| d.template == t).count(), 50);
            }
        }
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let z = Zipf::new(1000, ZIPF_EXPONENT);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        let ranks = draw(3);
        assert!(ranks.iter().all(|&r| r < 1000));
        let top = ranks.iter().filter(|&&r| r == 0).count();
        let mid = ranks.iter().filter(|&&r| r == 500).count();
        assert!(top > 100 && top > 10 * mid.max(1), "top {top}, mid {mid}");
    }

    #[test]
    fn deletes_and_annotations_only_touch_live_links() {
        let asns: Vec<i64> = (1..=50).collect();
        let domains: Vec<String> = (0..50).map(|i| format!("d{i}.com")).collect();
        let mut live = std::collections::BTreeSet::new();
        for w in plan_writes(11, 200, &asns, &domains) {
            match w.effect {
                Effect::Tag { note, .. } => assert!(live.insert(note)),
                Effect::Annotate { note, .. } => assert!(live.contains(&note)),
                Effect::Untag { note } => assert!(live.remove(&note)),
            }
        }
    }
}
