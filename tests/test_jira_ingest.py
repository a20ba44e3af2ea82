import pytest
from conftest import SP_FIELD, jira_issue

from storypoint.corpus import read_corpus
from storypoint.jira_ingest import (
    IngestConfig,
    IngestError,
    TokenBucket,
    fetch_issues,
    write_corpus,
)


def config_for(server, **overrides):
    defaults = dict(
        base_url=f"http://127.0.0.1:{server.server_address[1]}",
        jql="project = ME",
        story_point_field=SP_FIELD,
        page_size=50,
        rate_limit=1e6,
        retry_delay=0.001,
    )
    defaults.update(overrides)
    return IngestConfig(**defaults)


class TestFetchIssues:
    def test_zero_matches(self, mock_jira):
        result = fetch_issues(config_for(mock_jira))
        assert result.records == []
        assert result.skipped == {}

    def test_two_pages_of_fifty_then_twenty(self, mock_jira):
        mock_jira.script["issues"] = [jira_issue(f"ME-{i}") for i in range(70)]
        result = fetch_issues(config_for(mock_jira))
        assert len(result.records) == 70
        assert result.requests_made >= 2
        assert [r.issue_key for r in result.records] == [f"ME-{i}" for i in range(70)]
        assert result.records[0].project == "ME"

    def test_request_budget(self, mock_jira):
        mock_jira.script["issues"] = [jira_issue(f"ME-{i}") for i in range(70)]
        cfg = config_for(mock_jira)
        result = fetch_issues(cfg)
        assert result.requests_made <= -(-70 // cfg.page_size) + 3 * cfg.retries

    def test_missing_story_point_field_kept_unlabeled(self, mock_jira):
        mock_jira.script["issues"] = [jira_issue("ME-1", points=None)]
        result = fetch_issues(config_for(mock_jira))
        assert len(result.records) == 1
        assert result.records[0].story_points is None

    def test_non_numeric_story_points_skipped_and_counted(self, mock_jira):
        mock_jira.script["issues"] = [
            jira_issue("ME-1", points="five"),
            jira_issue("ME-2", points=True),
            jira_issue("ME-3", points=2.0),
        ]
        result = fetch_issues(config_for(mock_jira))
        assert [r.issue_key for r in result.records] == ["ME-3"]
        assert result.skipped == {"non-numeric story points": 2}

    def test_max_issues_cap(self, mock_jira):
        mock_jira.script["issues"] = [jira_issue(f"ME-{i}") for i in range(30)]
        result = fetch_issues(config_for(mock_jira, page_size=10, max_issues=13))
        assert len(result.records) == 13

    def test_4xx_raises_with_server_message(self, mock_jira):
        mock_jira.script["status"] = 401
        mock_jira.script["message"] = "bad token"
        with pytest.raises(IngestError, match="auth/query error.*bad token"):
            fetch_issues(config_for(mock_jira))

    def test_5xx_retried_with_backoff_then_succeeds(self, mock_jira):
        mock_jira.script["issues"] = [jira_issue("ME-1")]
        mock_jira.script["fail_first"] = 2
        delays = []
        result = fetch_issues(config_for(mock_jira, retry_delay=0.01),
                              sleep=delays.append)
        assert len(result.records) == 1
        backoffs = [d for d in delays if d >= 0.01]
        assert backoffs == [0.01, 0.02]

    def test_persistent_5xx_becomes_transient_failure(self, mock_jira):
        mock_jira.script["issues"] = [jira_issue("ME-1")]
        mock_jira.script["fail_first"] = 99
        with pytest.raises(IngestError, match="transient failure"):
            fetch_issues(config_for(mock_jira), sleep=lambda _d: None)
        # initial attempt plus exactly three retries
        assert len(mock_jira.script["requests"]) == 4

    def test_unreachable_server(self):
        cfg = IngestConfig(base_url="http://127.0.0.1:9", jql="x",
                           story_point_field=SP_FIELD, retry_delay=0.001,
                           timeout=0.2)
        with pytest.raises(IngestError, match="transient failure"):
            fetch_issues(cfg, sleep=lambda _d: None)

    def test_malformed_issue_skipped(self, mock_jira):
        mock_jira.script["issues"] = [
            {"key": "ME-1", "fields": {"summary": "", "created": "2016-01-12T10:00:00.000+0000"}},
            jira_issue("ME-2"),
        ]
        result = fetch_issues(config_for(mock_jira))
        assert [r.issue_key for r in result.records] == ["ME-2"]
        assert result.skipped == {"missing key/summary/created": 1}


class TestIngestConfig:
    def test_relative_url_rejected(self):
        with pytest.raises(IngestError):
            IngestConfig(base_url="not-a-url", jql="x", story_point_field="f")

    def test_page_size_bounds(self):
        with pytest.raises(IngestError):
            IngestConfig(base_url="https://x.example", jql="x",
                         story_point_field="f", page_size=0)

    @pytest.mark.parametrize("max_issues", [0, -5])
    def test_max_issues_below_one_rejected(self, max_issues):
        with pytest.raises(IngestError, match="max_issues must be >= 1") as exc:
            IngestConfig(base_url="https://x.example", jql="x",
                         story_point_field="f", max_issues=max_issues)
        assert exc.value.kind == "config"

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -2.0])
    def test_rate_limit_must_be_finite_and_positive(self, rate):
        # a NaN rate passes `<= 0`, and TokenBucket.acquire then never sleeps
        with pytest.raises(IngestError, match="rate_limit must be finite and positive") as exc:
            IngestConfig(base_url="https://x.example", jql="x",
                         story_point_field="f", rate_limit=rate)
        assert exc.value.kind == "config"

    def test_trailing_slash_normalized(self):
        cfg = IngestConfig(base_url="https://x.example/", jql="x", story_point_field="f")
        assert cfg.base_url == "https://x.example"


class TestTokenBucket:
    def test_sleeps_when_rate_exceeded(self):
        clock_value = [0.0]
        sleeps = []

        def clock():
            return clock_value[0]

        def sleep(duration):
            sleeps.append(duration)
            clock_value[0] += duration

        bucket = TokenBucket(rate=2.0, clock=clock, sleep=sleep)
        bucket.acquire()  # initial token, no sleep
        bucket.acquire()  # must wait for refill at 2/s
        assert sleeps == [pytest.approx(0.5)]

    def test_refill_avoids_sleep(self):
        clock_value = [0.0]
        sleeps = []
        bucket = TokenBucket(rate=2.0, clock=lambda: clock_value[0], sleep=sleeps.append)
        bucket.acquire()
        clock_value[0] += 1.0  # a full second refills the bucket
        bucket.acquire()
        assert sleeps == []


class TestWriteCorpusSurface:
    def test_roundtrip_through_module_surface(self, tmp_path, mock_jira):
        mock_jira.script["issues"] = [
            jira_issue("ME-1", summary="title with\nnewline"),
            jira_issue("ME-2", points=None),
        ]
        result = fetch_issues(config_for(mock_jira))
        path = tmp_path / "fetched.jsonl"
        assert write_corpus(result.records, path) == 2
        assert read_corpus(path) == result.records
