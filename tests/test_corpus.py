import math
import re
import sys
import unicodedata
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from oracles import reference_tokenize

from storypoint import corpus
from storypoint.corpus import (
    CorpusError,
    IssueRecord,
    build_vocabulary,
    compose_document,
    dataset_stats,
    filter_issues,
    load_bundled_corpus,
    load_vocabulary,
    parse_timestamp,
    read_corpus,
    save_vocabulary,
    split_chronological,
    tokenize,
    write_corpus,
)

T0 = datetime(2021, 3, 1, tzinfo=timezone.utc)


def make_issue(key="K-1", points=3.0, project="K", title="a title",
               description="", offset_days=0):
    return IssueRecord(
        project=project, issue_key=key, created_at=T0 + timedelta(days=offset_days),
        title=title, description=description, story_points=points,
    )


class TestFilterIssues:
    def test_zero_and_oversized_points_removed(self):
        raw = [
            make_issue("K-1", points=0.0),
            make_issue("K-2", points=101.0),
            make_issue("K-3", points=-2.0),
            make_issue("K-4", points=40.0),
            make_issue("K-5", points=100.0),
        ]
        kept, stats = filter_issues(raw, min_project_size=0)
        assert [r.issue_key for r in kept] == ["K-4", "K-5"]
        assert stats.removed_bad_points == 3
        assert stats.removed == 3
        assert stats.removed_fraction == pytest.approx(0.6)

    def test_unlabeled_issues_survive_point_filter(self):
        raw = [make_issue("K-1", points=None), make_issue("K-2", points=2.0)]
        kept, _ = filter_issues(raw, min_project_size=0)
        assert len(kept) == 2

    def test_small_projects_dropped_by_labeled_count(self):
        raw = [make_issue(f"A-{i}", project="A") for i in range(4)]
        raw += [make_issue(f"B-{i}", project="B") for i in range(2)]
        raw += [make_issue("B-x", project="B", points=None)]
        kept, stats = filter_issues(raw, min_project_size=2)
        assert all(r.project == "A" for r in kept)
        assert stats.removed_small_project == 3

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        raw = [
            make_issue(f"P{i % 3}-{i}", project=f"P{i % 3}",
                       points=float(rng.integers(-5, 120)))
            for i in range(60)
        ]
        once, _ = filter_issues(raw, min_project_size=5)
        twice, stats = filter_issues(once, min_project_size=5)
        assert once == twice
        assert stats.removed == 0

    def test_order_preserved(self):
        raw = [make_issue(f"K-{i}", points=float(i + 1)) for i in range(9, -1, -1)]
        kept, _ = filter_issues(raw, min_project_size=0)
        assert [r.issue_key for r in kept] == [r.issue_key for r in raw]


class TestComposeDocument:
    def test_title_and_description_joined_by_space(self):
        assert compose_document(make_issue(title="A", description="B")) == "A B"

    def test_empty_description_gives_title_alone(self):
        issue = make_issue(
            title="Standardize XD logging to align with Spring Boot", description=""
        )
        assert compose_document(issue) == issue.title

    def test_newlines_preserved(self):
        assert compose_document(make_issue(title="A", description="B\nC")) == "A B\nC"


class TestTokenize:
    def test_word_mode_lowercases_and_appends_sentinel(self):
        assert tokenize("Standardize XD logging", "word") == [
            "standardize", "xd", "logging", corpus.EOS_TOKEN,
        ]

    def test_word_mode_strips_edge_punctuation(self):
        assert tokenize("(logging). don't", "word") == ["logging", "don't", corpus.EOS_TOKEN]

    def test_character_mode(self):
        assert tokenize("ab", "character") == ["a", "b", corpus.EOS_TOKEN]

    def test_whitespace_only_gives_sentinel(self):
        assert tokenize("  ", "word") == [corpus.EOS_TOKEN]

    def test_no_alphanumeric_character_is_punctuation(self):
        # word mode keeps a word with alphanumeric edges without looking up
        # their categories; that is exact only while this holds
        assert [c for c in map(chr, range(sys.maxunicode + 1))
                if c.isalnum() and unicodedata.category(c).startswith("P")] == []

    def test_word_mode_matches_the_edge_loop_on_random_text(self):
        pieces = [
            "a", "Z", "ß", "İ", "ǅ", "β", "ж", "日本", "ا", "é", "e\u0301",  # letters, a mark
            "0", "7", "٣", "²", "½",                                       # digits, numbers
            ".", ",", "!", "?", "(", ")", "'", '"', "-", "_", "«", "»", "¿",  # punctuation
            "、", "。", "…", "—", "@", "#", "%", "&", "*", "/", "\\",
            "$", "+", "^", "`", "|", "~", "©", "€",                         # symbols stay
            "don't", "e.g.", "(x)", "...", "--", "v2.0", "‹i›",
            " ", " ", "\t", "\n", "\u2028", "\u00a0", "\u3000",
        ]
        rng = np.random.default_rng(14)
        for _ in range(3000):
            text = "".join(rng.choice(pieces, size=rng.integers(0, 30)))
            assert tokenize(text, "word") == reference_tokenize(text), repr(text)

    def test_character_roundtrip(self):
        rng = np.random.default_rng(5)
        alphabet = list("ab \n\tzβ日.!")
        for _ in range(50):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
            toks = tokenize(text, "character")
            assert toks[-1] == corpus.EOS_TOKEN
            assert "".join(toks[:-1]) == text


class TestBuildVocabulary:
    def test_frequency_threshold(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert vocab.tokens == [corpus.UNK_TOKEN, corpus.EOS_TOKEN, "a"]

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary([["a"], ["b"]], min_count=1)
        assert vocab.tokens[2:] == ["a", "b"]

    def test_truncation_keeps_reserved(self):
        docs = [["a", "a", "a"], ["b", "b"], ["c"], ["d"], ["e"]]
        vocab = build_vocabulary(docs, min_count=1, max_size=3)
        assert len(vocab) == 3
        assert vocab.tokens == [corpus.UNK_TOKEN, corpus.EOS_TOKEN, "a"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="empty corpus"):
            build_vocabulary([], min_count=1)

    def test_encode_maps_oov_to_unk(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        assert vocab.encode(["a", "zzz", corpus.EOS_TOKEN]) == [2, 0, 1]

    def test_index_is_inverse_of_tokens(self):
        vocab = build_vocabulary([["c", "b", "b", "a", "a", "a"]], min_count=1)
        for i, tok in enumerate(vocab.tokens):
            assert vocab.index[tok] == i


class TestSplitChronological:
    def test_ten_issues_split_6_2_2(self):
        issues = [make_issue(f"K-{i}", offset_days=i) for i in range(10)]
        split = split_chronological(issues)
        assert [len(split.train), len(split.valid), len(split.test)] == [6, 2, 2]
        assert [r.issue_key for r in split.train] == [f"K-{i}" for i in range(6)]

    def test_equal_timestamps_stable_by_key(self):
        issues = [make_issue(f"K-{i}") for i in (3, 1, 2, 0, 4)]
        split = split_chronological(issues)
        ordered = split.train + split.valid + split.test
        assert [r.issue_key for r in ordered] == ["K-0", "K-1", "K-2", "K-3", "K-4"]

    def test_five_issues_split_3_1_1(self):
        issues = [make_issue(f"K-{i}", offset_days=i) for i in range(5)]
        split = split_chronological(issues)
        assert [len(split.train), len(split.valid), len(split.test)] == [3, 1, 1]

    def test_too_few_issues(self):
        with pytest.raises(CorpusError, match="too few"):
            split_chronological([make_issue(f"K-{i}") for i in range(4)])

    def test_partition_properties(self):
        rng = np.random.default_rng(3)
        for n in [5, 7, 13, 40, 101]:
            issues = [
                make_issue(f"K-{i}", offset_days=int(rng.integers(0, 20)))
                for i in range(n)
            ]
            split = split_chronological(issues)
            assert len(split.train) == int(0.6 * n + 0.5)
            assert len(split.valid) == int(0.2 * n + 0.5)
            assert len(split.train) + len(split.valid) + len(split.test) == n
            keys = [r.issue_key for r in split.train + split.valid + split.test]
            assert sorted(keys) == sorted(r.issue_key for r in issues)
            latest_train = max(r.created_at for r in split.train)
            assert all(r.created_at >= latest_train for r in split.valid)

    def test_unlabeled_rejected(self):
        issues = [make_issue(f"K-{i}") for i in range(5)]
        issues[2].story_points = None
        with pytest.raises(CorpusError):
            split_chronological(issues)


class TestDatasetStats:
    def test_hand_computed_example(self):
        issues = [make_issue(f"K-{i}", points=p) for i, p in enumerate([1, 3, 3, 5])]
        stats = dataset_stats(issues)
        assert stats["min_sp"] == 1
        assert stats["max_sp"] == 5
        assert stats["mean_sp"] == pytest.approx(3.0)
        assert stats["median_sp"] == 3
        assert stats["mode_sp"] == 3
        assert stats["var_sp"] == pytest.approx(2.0)
        assert stats["std_sp"] == pytest.approx(math.sqrt(2), abs=1e-4)

    def test_singleton(self):
        stats = dataset_stats([make_issue(points=2.0)])
        assert stats["mean_sp"] == stats["median_sp"] == stats["mode_sp"] == 2
        assert stats["var_sp"] == 0

    def test_mode_tie_resolves_to_smallest(self):
        issues = [make_issue(f"K-{i}", points=p) for i, p in enumerate([5, 5, 2, 2, 9])]
        assert dataset_stats(issues)["mode_sp"] == 2

    def test_mean_matches_fsum_oracle(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(0.1, 100, size=500)
        issues = [make_issue(f"K-{i}", points=float(p)) for i, p in enumerate(points)]
        expected = math.fsum(points) / len(points)
        assert abs(dataset_stats(issues)["mean_sp"] - expected) <= 1e-9 * abs(expected)

    def test_mean_length_counts_words_without_sentinel(self):
        issues = [make_issue(title="three word title", description="")]
        assert dataset_stats(issues)["mean_length"] == 3

    def test_given_word_counts_replace_tokenizing(self):
        issues = [make_issue(f"K-{i}", title="w " * (i + 1)) for i in range(4)]
        counted = [len(tokenize(r.title, "word")) - 1 for r in issues]
        assert dataset_stats(issues, counted) == dataset_stats(issues)
        with pytest.raises(CorpusError):
            dataset_stats(issues, counted[:3])

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            dataset_stats([])


class TestCorpusFiles:
    def test_roundtrip_identity(self, tmp_path):
        records = [
            make_issue("K-1", points=3.5, title="with ß unicode"),
            make_issue("K-2", points=None, description="line1\nline2"),
            make_issue("K-3", points=8.0, title='quotes "inside" here'),
        ]
        path = tmp_path / "corpus.jsonl"
        assert write_corpus(records, path) == 3
        assert read_corpus(path) == records

    def test_empty_write(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_corpus([], path) == 0
        assert path.read_bytes() == b""
        assert read_corpus(path) == []

    def test_write_is_byte_deterministic(self, tmp_path):
        records = [make_issue("K-1"), make_issue("K-2", description="x\ty")]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(records, p1)
        write_corpus(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_corpus([make_issue("K-1")], path)
        with path.open("a") as fh:
            fh.write(corpus.record_to_json(make_issue("K-1")) + "\n")
        with pytest.raises(CorpusError, match="duplicate"):
            read_corpus(path)

    def test_empty_title_rejected(self):
        with pytest.raises(CorpusError, match="empty title"):
            corpus.record_from_json(
                '{"project":"K","issue_key":"K-1","created_at":"2021-01-01T00:00:00Z",'
                '"title":"  "}'
            )

    def test_random_roundtrip_property(self, tmp_path):
        rng = np.random.default_rng(12)
        # U+2028, U+2029 and U+0085 stay raw in the JSON, and a line ends only at \n
        alphabet = list("abc \né\t\"\\日\u2028\u2029\u0085")
        records = []
        for i in range(40):
            title = "x" + "".join(rng.choice(alphabet, size=rng.integers(0, 15)))
            desc = "".join(rng.choice(alphabet, size=rng.integers(0, 25)))
            points = float(rng.integers(1, 100)) if rng.random() < 0.7 else None
            records.append(
                make_issue(f"K-{i}", points=points, title=title, description=desc,
                           offset_days=int(rng.integers(0, 999)))
            )
        path = tmp_path / "rand.jsonl"
        write_corpus(records, path)
        assert read_corpus(path) == records


    def test_bad_line_is_named_by_path_and_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_corpus([make_issue("K-1", title="a\u2028b")], path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n{not json\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:3: bad corpus line")):
            read_corpus(path)


class TestTimestamps:
    def test_jira_millisecond_offset_format(self):
        dt = parse_timestamp("2016-01-12T10:00:00.000+0000")
        assert dt == datetime(2016, 1, 12, 10, 0, 0, tzinfo=timezone.utc)

    def test_zulu_and_offset_agree(self):
        assert parse_timestamp("2021-06-01T12:00:00Z") == parse_timestamp(
            "2021-06-01T14:00:00+02:00"
        )

    def test_bad_timestamp(self):
        with pytest.raises(CorpusError):
            parse_timestamp("not a date")


class TestVocabularyFiles:
    def test_roundtrip_word_mode(self, tmp_path):
        vocab = build_vocabulary([["alpha", "beta", "alpha"]], min_count=1)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.mode == vocab.mode
        assert loaded.content_hash() == vocab.content_hash()

    def test_file_is_one_token_per_line_reserved_first(self, tmp_path):
        vocab = build_vocabulary([["beta", "alpha", "beta"]], min_count=1)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "#mode=word"  # the tokenizer-mode header leads
        assert lines[1] == "<unk>" and lines[2] == "<eos>"
        assert lines[3:] == ["beta", "alpha"]

    def test_roundtrip_character_mode_with_newline_token(self, tmp_path):
        docs = [tokenize("a\nb\tc \\d", "character")]
        vocab = build_vocabulary(docs, min_count=1, mode="character")
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.mode == "character"

    def test_roundtrip_escaped_tokens(self, tmp_path):
        tokens = [corpus.UNK_TOKEN, corpus.EOS_TOKEN, "plain", "a\\b", "\\", "\\\\",
                  "\\n", "\\\n", "\t", "x\ty", "\n", "\r", "\\t\\r", "trail\\",
                  "\\\\n"]
        path = tmp_path / "vocab.txt"
        save_vocabulary(corpus.Vocabulary(tokens=tokens, mode="character"), path)
        assert load_vocabulary(path).tokens == tokens
        # backslashes pair left to right; one that starts no escape stays
        path.write_text("\n".join(["#mode=character", *tokens[:2], "lone\\", "\\\\n", "\\x"])
                        + "\n")
        assert load_vocabulary(path).tokens[2:] == ["lone\\", "\\n", "\\x"]

    def test_hash_changes_with_content(self):
        v1 = build_vocabulary([["a"]], min_count=1)
        v2 = build_vocabulary([["b"]], min_count=1)
        assert v1.content_hash() != v2.content_hash()

    def test_mode_comes_from_the_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        for mode in corpus.TOKENIZER_MODES:
            vocab = build_vocabulary([tokenize("ab ab", mode)], min_count=1, mode=mode)
            save_vocabulary(vocab, path)
            loaded = load_vocabulary(path)
            assert loaded.mode == mode and loaded.tokens == vocab.tokens
            assert loaded.content_hash() == vocab.content_hash()

    def test_file_without_a_mode_header_is_refused(self, tmp_path):
        path = tmp_path / "vocab.txt"
        for text in ("<unk>\n<eos>\na\nb\n", "#mode=bogus\n<unk>\n<eos>\n", ""):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(CorpusError, match="does not start with a line "
                                                  "#mode=word or #mode=character"):
                load_vocabulary(path)


class TestBundledCorpus:
    def test_shape_and_balance(self):
        records = load_bundled_corpus()
        assert len(records) == 64
        easies = [r for r in records if "easy" in tokenize(r.title, "word")]
        assert len(easies) == 32
        assert all(r.story_points == 1.0 for r in easies)
        split = split_chronological(records)
        train_points = [r.story_points for r in split.train]
        assert sum(1 for p in train_points if p == 1.0) == 19
        # mean/median baselines sit at MAE 3.5 on the test partition
        assert sum(train_points) / len(train_points) == pytest.approx(4.5)
