"""JIRA REST ingestion: page through a search query and emit corpus files.

Issues lacking the story-point field are kept with no label (they feed
pre-training); issues with a malformed field value are skipped and counted.
`requests` is imported only when a page is fetched, so the other commands
do not pay for loading it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from urllib.parse import urlparse

if TYPE_CHECKING:
    import requests

from .corpus import IssueRecord, parse_timestamp, write_corpus  # noqa: F401  (write_corpus is part of this module's surface)


class IngestError(RuntimeError):
    def __init__(self, message: str, kind: str = "transport"):
        super().__init__(message)
        self.kind = kind  # "config", "auth_query", or "transport"


@dataclass
class IngestConfig:
    base_url: str
    jql: str
    story_point_field: str
    page_size: int = 50
    max_issues: int | None = None
    auth_token: str | None = None
    rate_limit: float = 2.0  # requests per second
    timeout: float = 30.0
    retries: int = 3
    retry_delay: float = 1.0

    def __post_init__(self):
        scheme = urlparse(self.base_url).scheme
        if scheme not in ("http", "https") or not urlparse(self.base_url).netloc:
            raise IngestError(f"base_url must be absolute http(s): {self.base_url!r}", "config")
        if not 1 <= self.page_size <= 1000:
            raise IngestError("page_size must lie in 1..1000", "config")
        if self.max_issues is not None and self.max_issues < 1:
            raise IngestError("max_issues must be >= 1", "config")
        if not (math.isfinite(self.rate_limit) and self.rate_limit > 0):  # NaN passes <= 0
            raise IngestError("rate_limit must be finite and positive", "config")
        self.base_url = self.base_url.rstrip("/")


class TokenBucket:
    """Client-side politeness limiter: at most `rate` acquisitions per second."""

    def __init__(self, rate: float, capacity: float = 1.0,
                 clock=time.monotonic, sleep=time.sleep):
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()

    def acquire(self) -> None:
        now = self._clock()
        self.tokens = min(self.capacity, self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens < 1.0:
            wait = (1.0 - self.tokens) / self.rate
            self._sleep(wait)
            self._last = self._clock()
            self.tokens = 1.0
        self.tokens -= 1.0


@dataclass
class FetchResult:
    records: list[IssueRecord] = field(default_factory=list)
    skipped: dict[str, int] = field(default_factory=dict)
    requests_made: int = 0

    def skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1


def _server_message(response: requests.Response) -> str:
    try:
        body = response.json()
        messages = body.get("errorMessages") or []
        if messages:
            return "; ".join(str(m) for m in messages)
    except ValueError:
        pass
    return response.text[:200]


def _request_page(cfg: IngestConfig, start_at: int, bucket: TokenBucket,
                  session, sleep) -> dict:
    import requests

    url = f"{cfg.base_url}/rest/api/2/search"
    params = {
        "jql": cfg.jql,
        "startAt": start_at,
        "maxResults": cfg.page_size,
        "fields": f"summary,description,created,{cfg.story_point_field}",
    }
    headers = {"Accept": "application/json"}
    if cfg.auth_token:
        headers["Authorization"] = f"Bearer {cfg.auth_token}"
    last_error = None
    for attempt in range(cfg.retries + 1):
        if attempt:
            sleep(cfg.retry_delay * 2 ** (attempt - 1))
        bucket.acquire()
        try:
            response = session.get(url, params=params, headers=headers, timeout=cfg.timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = str(exc)
            continue
        if 400 <= response.status_code < 500:
            raise IngestError(
                f"auth/query error (HTTP {response.status_code}): {_server_message(response)}",
                "auth_query",
            )
        if response.status_code >= 500:
            last_error = f"HTTP {response.status_code}"
            continue
        try:
            return response.json()
        except ValueError as exc:
            last_error = f"bad JSON body: {exc}"
            continue
    raise IngestError(f"transient failure after {cfg.retries} retries: {last_error}", "transport")


def _issue_to_record(issue: dict, cfg: IngestConfig, project_hint: str,
                     result: FetchResult) -> IssueRecord | None:
    fields_obj = issue.get("fields") or {}
    key = issue.get("key") or ""
    title = (fields_obj.get("summary") or "").strip()
    created = fields_obj.get("created")
    if not key or not title or not created:
        result.skip("missing key/summary/created")
        return None
    sp_value = fields_obj.get(cfg.story_point_field)
    points = None
    if sp_value is not None:
        if isinstance(sp_value, bool) or not isinstance(sp_value, (int, float)):
            result.skip("non-numeric story points")
            return None
        points = float(sp_value)
    try:
        created_at = parse_timestamp(created)
    except ValueError:
        result.skip("bad created timestamp")
        return None
    project = key.split("-")[0] if "-" in key else project_hint
    return IssueRecord(
        project=project, issue_key=key, created_at=created_at,
        title=title, description=fields_obj.get("description") or "",
        story_points=points,
    )


def fetch_issues(cfg: IngestConfig, session: requests.Session | None = None,
                 sleep=time.sleep, clock=time.monotonic) -> FetchResult:
    """Page through the search endpoint until exhausted or max_issues.

    Server ordering is preserved. 4xx responses raise immediately; 5xx and
    network timeouts are retried with exponential backoff.
    """
    import requests

    own_session = session is None
    session = session or requests.Session()
    bucket = TokenBucket(cfg.rate_limit, clock=clock, sleep=sleep)
    result = FetchResult()
    project_hint = urlparse(cfg.base_url).netloc
    try:
        start_at = 0
        while True:
            page = _request_page(cfg, start_at, bucket, session, sleep)
            result.requests_made += 1
            issues = page.get("issues") or []
            total = int(page.get("total", 0))
            for issue in issues:
                record = _issue_to_record(issue, cfg, project_hint, result)
                if record is not None:
                    result.records.append(record)
                if cfg.max_issues is not None and len(result.records) >= cfg.max_issues:
                    return result
            start_at += len(issues)
            if not issues or start_at >= total:
                return result
    finally:
        if own_session:
            session.close()
