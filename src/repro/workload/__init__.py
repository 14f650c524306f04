"""Workload synthesis and access-log analysis."""

from .adl import PAPER_ADL, AdlSpec, generate_adl_trace
from .analysis import (
    PAPER_TABLE1_THRESHOLDS,
    ThresholdRow,
    analyze_caching_potential,
)
from .describe import TraceSummary, describe_trace, render_trace_summary
from .io import load_trace, save_trace, trace_from_jsonl, trace_to_jsonl
from .logfile import (
    ClfParseError,
    ClfRecord,
    default_cgi_classifier,
    load_clf,
    parse_clf_line,
)
from .generators import (
    hit_ratio_trace,
    uncacheable_cgi_trace,
    unique_cgi_trace,
    zipf_cgi_trace,
)
from .request import Request, RequestKind, TimedRequest
from .traces import Trace
from .webstone import WEBSTONE_FILE_MIX, nullcgi_trace, webstone_file_trace

__all__ = [
    "Request",
    "RequestKind",
    "TimedRequest",
    "Trace",
    "AdlSpec",
    "PAPER_ADL",
    "generate_adl_trace",
    "ThresholdRow",
    "analyze_caching_potential",
    "PAPER_TABLE1_THRESHOLDS",
    "WEBSTONE_FILE_MIX",
    "webstone_file_trace",
    "nullcgi_trace",
    "unique_cgi_trace",
    "uncacheable_cgi_trace",
    "hit_ratio_trace",
    "zipf_cgi_trace",
    "save_trace",
    "load_trace",
    "trace_to_jsonl",
    "trace_from_jsonl",
    "ClfRecord",
    "ClfParseError",
    "parse_clf_line",
    "load_clf",
    "default_cgi_classifier",
    "TraceSummary",
    "describe_trace",
    "render_trace_summary",
]
