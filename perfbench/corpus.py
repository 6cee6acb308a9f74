"""Seeded, scaled corpus generator for the benchmark.

Writes a site in the README's page dialect (index, venue pages, proceedings
pages with pagination hops) plus two ground-truth files: ``truth.json``
holds every paper's fields and the conferences; ``plan.json`` holds the
mock server's fault script, the expected request count, the retrieval plan
and the expected result of every retrieval call.  Expected results are
computed here from the generated records by the documented rules (casefold
substring, normalized author names); nothing in this module imports the
program under test.

A shape fixes the amount of work and everything the failed-operation share
depends on: the venue and year grid, the multiset of page sizes, how many
conferences have pagination hops, which conferences answer 429 and how
many paths answer 503.  The seed fixes the content (titles, authors,
abstracts), which conference gets which size and hops, which paths answer
503, and the point-lookup ids and keywords.  Output is cached by
(shape, seed).
"""
from __future__ import annotations

import hashlib
import html
import json
import random
import shutil
import unicodedata
from pathlib import Path

GENERATOR_VERSION = 4
BASE = "https://anthology.test/"
PLAIN_AUTHOR_SHARE = 0.04  # entries whose authors are plain "A, B and C" text
LIKE_KEYWORDS = 4
POINT_LOOKUPS = 1000

SHAPES = {
    # A few venues x years, each conference one very large listing split
    # over several pagination hops.  No network: a fixture source.
    "bulk-fixture": {
        "source": "fixture",
        "venues": 2,
        "years": [2021, 2022],
        "entries": [1500, 1500],
        "pages_per_conf": 3,
        "hop_share": 1.0,
        "abstract_share": 0.9,
        "authors": 4000,
        "export_years": 1,
        "export_venues": 2,
        "filter_venues": 1,
        "faults_503": 0,
        "every_429": 0,
    },
    # Hundreds of conferences with a handful of entries each, served over
    # HTTP by the mock server with a scripted few faults.
    "wide-mock": {
        "source": "mock",
        "venues": 60,
        "years": [2019, 2020, 2021, 2022, 2023],
        "entries": [4, 10],
        "pages_per_conf": 2,
        "hop_share": 0.3,
        "abstract_share": 0.7,
        "authors": 1500,
        "export_years": 5,
        "export_venues": 60,
        "filter_venues": 30,
        "faults_503": 9,
        "every_429": 75,
    },
}

FIRST_NAMES = [
    "Wei", "Mei", "José", "Zoë", "Łukasz", "Chloé", "Søren", "Anna", "Liang",
    "Priya", "Tomás", "Ivan", "Sofia", "Hana", "Yuki", "Marta", "Pedro",
    "Elif", "Björn", "Céline", "Amara", "Ravi", "Gabriela", "Ingrid",
    "Dimitris", "Aisha", "Farid", "Helga", "Omar", "Kenji", "Lucía", "Noé",
    "Ana", "Jürgen", "Fatma", "Olga", "Rahul", "Siddharth", "Mia", "Lars",
    "Jae-won", "Thuy", "Bogdan", "Irene", "Mateus", "Nadia", "Ömer", "Paula",
    "Quentin", "Rosa", "Stefan", "Tariq", "Ursula", "Viktor", "Wen", "Xavier",
    "Yasmin", "Zhen", "Agnès", "Håkon",
]
SURNAMES = [
    "Chen", "Lin", "García", "Müller", "Kowalski", "Dubois", "Holm", "Schmidt",
    "Zhao", "Sharma", "Alvarez", "Petrov", "Rossi", "Kim", "Tanaka", "Nowak",
    "Santos", "Yilmaz", "Andersson", "Martin", "Okafor", "Iyer", "Silva",
    "Olsen", "Papadopoulos", "Khan", "Rahimi", "Jónsdóttir", "Haddad", "Sato",
    "Fernández", "Lefèvre", "Nguyen", "Wagner", "Demir", "Ivanova", "Gupta",
    "Krishnan", "Larsen", "Berg", "Park", "Tran", "Popescu", "Moreau",
    "Oliveira", "Haddadi", "Çelik", "Ruiz", "Quispe", "Romano", "Schneider",
    "Mahmoud", "Ueda", "Volkov", "Wang", "Xu", "Yamamoto", "Zhang", "Brandão",
    "Novák", "Horvat", "Kovač", "Łęcki", "Straße", "Østergaard", "Ibáñez",
    "Hoffmann", "Jansen", "Koch", "Li", "Mendes", "Ng", "O'Brien", "Peña",
    "Qureshi", "Ramos", "Suzuki", "Takahashi",
]
TOPICS = [
    "Machine Translation", "Question Answering", "Named Entity Recognition",
    "Dependency Parsing", "Sentiment Analysis", "Text Summarization",
    "Relation Extraction", "Semantic Role Labeling", "Coreference Resolution",
    "Dialogue State Tracking", "Speech Recognition", "Story Generation",
    "Grammatical Error Correction", "Word Sense Disambiguation",
    "Cross-Lingual Retrieval", "Reading Comprehension", "Morphological Analysis",
    "Knowledge Graph Completion", "Code Generation", "Table-to-Text Generation",
    "Keyphrase Extraction", "Fact Verification", "Entity Linking",
    "Natural Language Inference", "Hate Speech Detection", "Text Simplification",
    "Paraphrase Generation", "Argument Mining", "Event Extraction",
    "Data-to-Text Generation", "Open Information Extraction", "Topic Modeling",
    "Spelling Correction", "Stance Detection", "Emotion Recognition",
    "Clinical Text Mining", "Legal Document Analysis", "Poetry Generation",
    "Semantic Parsing", "Language Identification",
]
METHODS = [
    "Graph Neural Networks", "Contrastive Learning", "Prompt Tuning",
    "Data Augmentation", "Knowledge Distillation", "Multi-Task Learning",
    "Adapter Modules", "Curriculum Learning", "Span-Based Decoding",
    "Dual Encoders", "Sparse Attention", "Pretrained Encoders",
    "Synthetic Supervision", "Structured Pruning", "Latent Variable Models",
    "Subword Regularization", "Retrieval Augmentation", "Reinforcement Learning",
    "Active Learning", "Meta-Learning", "Mixture of Experts", "Beam Search",
    "Weak Supervision", "Instruction Tuning", "Optimal Transport",
    "Energy-Based Models", "Capsule Networks", "Quantized Transformers",
    "Hypernetworks", "Self-Training",
]
PATTERNS = [
    "{m} for {t}",
    "Improving {t} with {m}",
    "{t} via {m}",
    "Rethinking {m} for Low-Resource {t}",
    "On the Robustness of {m} in {t}",
    "Efficient {t} through {m}",
    "A Study of {m} for Multilingual {t}",
    "{m} & {t}: Lessons Learned",
    "When Does {m} Help {t}?",
]
FACETS = [
    "event", "persona", "coherence", "metrics", "robustness", "efficiency",
    "bias", "calibration", "interpretability", "faithfulness", "scalability",
    "annotation",
]
ABSTRACT_OPENERS = [
    "We study {t} and describe a simple approach built on {m}.",
    "This paper revisits {t} from the angle of {m}.",
    "We propose a new model for {t} that relies on {m}.",
    "Scaling {t} to new domains is hard, and {m} is a natural remedy.",
    "Recent work on {t} overlooks what {m} can offer.",
]
ABSTRACT_FACET = [
    "Our analysis focuses on {f} and {g}.",
    "We pay particular attention to {f}.",
    "Experiments measure {f} alongside {g} on four benchmarks.",
    "A human study confirms gains in {f}.",
]
ABSTRACT_CLOSERS = [
    "Results on three benchmarks show consistent gains over strong baselines.",
    "We release code and trained checkpoints for further research.",
    "An extensive analysis shows where the approach helps and where it fails.",
    "The method closes much of the gap while using a fraction of the supervision.",
]


# -- documented rules, implemented independently of the program ---------------


def normalize_author(full: str) -> str:
    """casefold(strip_diacritics(collapse_whitespace(trim(full))))."""
    collapsed = " ".join(full.split())
    decomposed = unicodedata.normalize("NFKD", collapsed)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return " ".join(stripped.casefold().split())


def keyword_hay(paper: dict) -> str:
    return (paper["title"] + " " + (paper["abstract"] or "")).casefold()


# -- generation ----------------------------------------------------------------


def shape_key(workload: str) -> str:
    blob = json.dumps([GENERATOR_VERSION, workload, SHAPES[workload]], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def venue_names(shape: dict) -> list[tuple[str, str, str]]:
    """(venue_key, display name, category token); fixed by the shape."""
    out = []
    for i in range(shape["venues"]):
        name = f"VEN{i + 1:03d}"
        token = "acl-events" if i % 2 == 0 else "non-acl-events"
        out.append((name.lower(), name, token))
    return out


def _author_pool(rng: random.Random, size: int) -> list[str]:
    combos = [f"{f} {s}" for f in FIRST_NAMES for s in SURNAMES]
    rng.shuffle(combos)
    return combos[:size]


def _paper(rng: random.Random, shape: dict, authors: list[str], venue: str,
           year: int, n: int) -> dict:
    topic, method = rng.choice(TOPICS), rng.choice(METHODS)
    title = rng.choice(PATTERNS).format(t=topic, m=method)
    abstract = None
    if rng.random() < shape["abstract_share"]:
        f, g = rng.sample(FACETS, 2)
        abstract = " ".join([
            rng.choice(ABSTRACT_OPENERS).format(t=topic.lower(), m=method.lower()),
            rng.choice(ABSTRACT_FACET).format(f=f, g=g),
            rng.choice(ABSTRACT_CLOSERS),
        ])
    # One to five authors; about one entry in 600 has none (an editorial entry).
    names = rng.sample(authors, rng.randint(0 if rng.random() < 0.01 else 1, 5))
    aid = f"{year}.{venue}-main.{n}"
    bibkey = None
    if rng.random() < 0.5:
        surname = normalize_author(names[0]).split()[-1] if names else "anon"
        bibkey = f"{surname}-{year}-{n}"
    return {
        "anthology_id": aid,
        "title": title,
        "authors": names,
        "plain_authors": bool(names) and rng.random() < PLAIN_AUTHOR_SHARE,
        "venue_key": venue,
        "year": year,
        "page_url": f"{BASE}{aid}/",
        "pdf_url": f"{BASE}{aid}.pdf" if rng.random() < 0.9 else None,
        "abstract": abstract,
        "bibkey": bibkey,
    }


def _conferences(rng: random.Random, shape: dict, authors: list[str]
                 ) -> tuple[list[dict], list[dict]]:
    """Conferences and their papers.

    Page sizes, hop counts and the 429-scripted conferences are fixed by
    the shape and only assigned by the seed, so that a crawl makes the same
    requests for every seed and parses the same number of entries, up to
    the sizes that fall on the four 429 conferences.
    """
    slots = [(v, n, t, y) for v, n, t in venue_names(shape) for y in shape["years"]]
    lo, hi = shape["entries"]
    sizes = [lo + i % (hi - lo + 1) for i in range(len(slots))]
    rng.shuffle(sizes)
    every = shape["every_429"]
    failing = {i for i in range(len(slots)) if every and (i + 1) % every == 0}
    healthy = [i for i in range(len(slots)) if i not in failing]
    with_hops = set(rng.sample(healthy, round(shape["hop_share"] * len(healthy))))
    conferences, papers = [], []
    for i, (venue, name, token, year) in enumerate(slots):
        conf_id = f"{venue}-{year}"
        entries = [_paper(rng, shape, authors, venue, year, n)
                   for n in range(1, sizes[i] + 1)]
        n_pages = shape["pages_per_conf"] if i in with_hops else 1
        pages = [f"proceedings/{conf_id}.html"]
        pages += [f"proceedings/{conf_id}-p{k}.html" for k in range(2, n_pages + 1)]
        conferences.append({
            "conf_id": conf_id, "venue_key": venue, "year": year,
            "name": name, "category": token,
            "title": f"Proceedings of the {name} Conference ({year})",
            "desc": rng.choice([None, "Annual meeting", "Archival proceedings"]),
            "url": BASE + pages[0], "pages": pages,
            "fails_429": i in failing,
            "paper_ids": [p["anthology_id"] for p in entries],
        })
        papers.extend(entries)
    return conferences, papers


def _fault_script(rng: random.Random, shape: dict, conferences: list[dict],
                  venues: list[tuple[str, str, str]]) -> dict[str, list[int]]:
    """Path -> status sequence for the mock server (the last status repeats)."""
    script: dict[str, list[int]] = {}
    for conf in conferences:
        if conf["fails_429"]:
            script["/" + conf["pages"][0]] = [429, 200]
    n = shape["faults_503"]
    if not n:
        return script
    healthy = [c for c in conferences if not c["fails_429"]]
    hops = [p for c in healthy for p in c["pages"][1:]]
    firsts = [c["pages"][0] for c in healthy]
    venue_pages = [f"venues/{v}.html" for v, _, _ in venues]
    third = n // 3
    picks = (rng.sample(hops, third) + rng.sample(firsts, third)
             + rng.sample(venue_pages, n - 2 * third))
    for path in picks:
        script["/" + path] = [503, 200]
    return script


# -- rendering -----------------------------------------------------------------

HEAD = (
    '<!DOCTYPE html>\n<html lang="en">\n<head>\n<meta charset="utf-8">\n'
    f'<base href="{BASE}">\n<title>{{title}}</title>\n</head>\n<body>\n'
)
FOOT = "</body>\n</html>\n"


def _surname_slug(name: str) -> str:
    return "".join(ch for ch in normalize_author(name).split()[-1] if ch.isalnum())


def render_index(venues: list[tuple[str, str, str]]) -> str:
    out = [HEAD.format(title="Anthology Index"), "<main>\n"]
    for token in ("acl-events", "non-acl-events"):
        out.append(f'<section class="venue-index" data-category="{token}">\n<ul>\n')
        for key, name, cat in venues:
            if cat == token:
                out.append(f'<li><a class="venue-link" href="/venues/{key}.html">'
                           f"{name}</a></li>\n")
        out.append("</ul>\n</section>\n")
    out.append("</main>\n" + FOOT)
    return "".join(out)


def render_venue(name: str, key: str, confs: list[dict]) -> str:
    out = [HEAD.format(title=name), f'<section class="venue-page" data-venue="{key}">\n',
           f"<h1>{name}</h1>\n"]
    for conf in sorted(confs, key=lambda c: -c["year"]):
        out.append(f'<h4 class="year-heading">{conf["year"]}</h4>\n<ul>\n')
        out.append(f'<li><a class="proceedings-link" href="/{conf["pages"][0]}">'
                   f'{html.escape(conf["title"])}</a>')
        if conf["desc"]:
            out.append(f' <span class="event-desc">{conf["desc"]}</span>')
        out.append("</li>\n</ul>\n")
    out.append("</section>\n" + FOOT)
    return "".join(out)


def render_entry(p: dict) -> str:
    out = ['<div class="paper-entry">\n']
    if p["pdf_url"]:
        out.append(f'<a class="pdf-link" href="/{p["anthology_id"]}.pdf">pdf</a>\n')
    out.append(f'<strong><a class="paper-title" href="/{p["anthology_id"]}/">'
               f'{html.escape(p["title"])}</a></strong>\n')
    names = p["authors"]
    if p["plain_authors"]:
        text = names[0] if len(names) == 1 else ", ".join(names[:-1]) + " and " + names[-1]
        out.append(f'<span class="paper-authors">{html.escape(text)}</span>\n')
    elif names:
        links = ", ".join(f'<a href="/people/{_surname_slug(a)}/">{html.escape(a)}</a>'
                          for a in names)
        out.append(f'<span class="paper-authors">{links}</span>\n')
    if p["abstract"]:
        out.append(f'<div class="paper-abstract">{html.escape(p["abstract"])}</div>\n')
    if p["bibkey"]:
        out.append(f'<span class="bibkey">{p["bibkey"]}</span>\n')
    out.append("</div>\n")
    return "".join(out)


def render_proceedings(conf: dict, page_no: int, entries: list[dict]) -> str:
    out = [HEAD.format(title=conf["conf_id"]),
           f'<section class="proceedings-page" data-conf="{conf["conf_id"]}">\n',
           f'<h1>{html.escape(conf["title"])}</h1>\n<div class="paper-list">\n']
    out.extend(render_entry(p) for p in entries)
    out.append("</div>\n")
    if len(conf["pages"]) > 1:
        links = " ".join(f'<a href="/{path}">{k}</a>'
                         for k, path in enumerate(conf["pages"], start=1))
        out.append(f'<nav class="pagination">{links}</nav>\n')
    out.append(f"</section>\n<!-- page {page_no} -->\n" + FOOT)
    return "".join(out)


# -- retrieval plan and expected results ----------------------------------------


def _plan(rng: random.Random, shape: dict, stored: list[dict],
          venues: list[tuple[str, str, str]]) -> dict:
    keys = [v for v, _, _ in venues]
    years = shape["years"]
    plan = {}

    plan["point_ids"] = [p["anthology_id"]
                         for p in rng.sample(stored, POINT_LOOKUPS)]

    # One keyword length for every seed: the LIKE function's cost per row
    # grows with the pattern's length.
    words = sorted({w.casefold() for t in TOPICS + METHODS for w in t.split() if len(w) == 8})
    plan["like"] = []
    for kw in rng.sample(words, LIKE_KEYWORDS):
        hits = sum(1 for p in stored if kw in p["title"].casefold())
        plan["like"].append({"keyword": kw, "hits": hits})

    page_years = sorted(rng.sample(years, min(3, len(years))))
    page_venues = sorted(rng.sample(keys, min(3, len(keys))))
    pool = [p for p in stored if p["year"] in page_years and p["venue_key"] in page_venues]
    pool.sort(key=lambda p: (-p["year"], p["anthology_id"]))
    plan["page"] = {
        "argv": ["query", "--where", "year:in:" + ",".join(map(str, page_years)),
                 "--where", "venue_key:in:" + ",".join(page_venues),
                 "--order", "year:desc", "--limit", "10", "--format", "json"],
        "ids": [p["anthology_id"] for p in pool[:10]],
    }

    phrase = rng.choice(TOPICS).casefold()
    any_words = rng.sample(FACETS, 3)
    f_venues = sorted(rng.sample(keys, shape["filter_venues"]))
    f_years = (years[0], years[-1])
    hits = [p["anthology_id"] for p in stored
            if p["venue_key"] in f_venues and f_years[0] <= p["year"] <= f_years[1]
            and phrase in keyword_hay(p) and any(w in keyword_hay(p) for w in any_words)]
    argv = ["filter", "--years", f"{f_years[0]}..{f_years[1]}",
            "--venues", ",".join(f_venues), "--keyword-all", phrase]
    for w in any_words:
        argv += ["--keyword-any", w]
    plan["filter"] = {"argv": argv + ["--format", "json"], "ids": sorted(hits)}

    counts: dict[str, dict[str, int]] = {}
    for p in stored:
        per_venue = counts.setdefault(p["venue_key"], {})
        for name in dict.fromkeys(normalize_author(a) for a in p["authors"]):
            per_venue[name] = per_venue.get(name, 0) + 1
    plan["stats"] = {"argv": ["stats", "--by", "venue", "--by", "author", "--format", "json"],
                     "counts": counts}

    e_years = sorted(rng.sample(years, shape["export_years"]))
    e_venues = sorted(rng.sample(keys, shape["export_venues"]))
    argv = ["query", "--where", "year:in:" + ",".join(map(str, e_years))]
    if len(e_venues) < len(keys):
        argv += ["--where", "venue_key:in:" + ",".join(e_venues)]
    plan["export"] = {
        "argv": argv + ["--format", "bibtex"],
        "hits": sum(1 for p in stored
                    if p["year"] in e_years and p["venue_key"] in e_venues),
    }
    return plan


def generate(workload: str, seed: int, out: Path) -> None:
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}/{seed}")
    venues = venue_names(shape)
    authors = _author_pool(rng, shape["authors"])
    conferences, papers = _conferences(rng, shape, authors)
    by_id = {p["anthology_id"]: p for p in papers}
    script = _fault_script(rng, shape, conferences, venues)
    stored = [by_id[i] for c in conferences if not c["fails_429"] for i in c["paper_ids"]]

    (out / "venues").mkdir(parents=True)
    (out / "proceedings").mkdir()
    (out / "index.html").write_text(render_index(venues), encoding="utf-8")
    for key, name, _ in venues:
        confs = [c for c in conferences if c["venue_key"] == key]
        (out / "venues" / f"{key}.html").write_text(
            render_venue(name, key, confs), encoding="utf-8")
    for conf in conferences:
        ids = conf["paper_ids"]
        n_pages = len(conf["pages"])
        step = -(-len(ids) // n_pages)
        for k, path in enumerate(conf["pages"]):
            chunk = [by_id[i] for i in ids[k * step:(k + 1) * step]]
            (out / path).write_text(render_proceedings(conf, k + 1, chunk),
                                    encoding="utf-8")

    pages = 1 + len(venues) + sum(len(c["pages"]) for c in conferences)
    failing = [c for c in conferences if c["fails_429"]]
    # Requests per crawl phase: every page once, except the hops of a
    # conference whose first page fails; plus one retry per scripted 503.
    requests = (pages - sum(len(c["pages"]) - 1 for c in failing)
                + sum(1 for s in script.values() if s[0] == 503))
    truth = {
        "venues": [{"venue_key": k, "name": n, "category": c} for k, n, c in venues],
        "conferences": conferences,
        "papers": papers,
    }
    (out / "truth.json").write_text(json.dumps(truth, ensure_ascii=False), encoding="utf-8")
    plan = {
        "workload": workload, "seed": seed, "shape": shape,
        "conferences": len(conferences),
        "failing": sorted(c["conf_id"] for c in failing),
        "fault_script": script,
        "pages": pages,
        "requests_per_phase": requests,
        "html_bytes": sum(f.stat().st_size for f in out.rglob("*.html")),
        **_plan(rng, shape, stored, venues),
    }
    (out / "plan.json").write_text(json.dumps(plan, ensure_ascii=False), encoding="utf-8")


def corpus_dir(cache: Path, workload: str, seed: int) -> Path:
    """Generate (once) and return the corpus directory for (workload, seed)."""
    target = cache / f"corpus-{workload}-{shape_key(workload)}-s{seed}"
    if (target / "plan.json").is_file():
        return target
    staging = target.with_name(target.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    generate(workload, seed, staging)
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)
    return target
