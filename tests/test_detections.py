"""Detector-output ingestion and ROI selection tests."""

import numpy as np
import pytest

from fundusvit.detections import (DiscDetection, load_detection_file,
                                  parse_detection_lines, select_roi)

from helpers import detector_auc, load_detections, normalized


class TestParsing:
    def test_normalized_to_pixels(self):
        dets = parse_detection_lines("0 0.5 0.5 0.2 0.2 0.99\n", width=1000, height=800)
        assert len(dets) == 1
        d = dets[0]
        assert (d.cx, d.cy, d.w, d.h) == (500.0, 400.0, 200.0, 160.0)
        assert d.confidence == 0.99

    def test_empty_file_is_empty_list(self):
        assert parse_detection_lines("", 100, 100) == []
        assert parse_detection_lines("\n# comment only\n", 100, 100) == []

    def test_selection_takes_the_most_confident_and_the_first_of_ties(self):
        text = ("0 0.2 0.2 0.1 0.1 0.30\n0 0.4 0.4 0.1 0.1 0.80\n"
                "0 0.7 0.7 0.1 0.1 0.80\n0 0.9 0.9 0.1 0.1 0.50\n")
        chosen = select_roi(parse_detection_lines(text, 100, 100))
        assert chosen.confidence == 0.80
        assert chosen.cx == pytest.approx(40.0)

    @pytest.mark.parametrize("line, expected", [
        ("0 0.5 0.5 0.2 0.2 0.0", (50.0, 40.0, 20.0, 16.0, 0.0)),  # confidence ends
        ("0 0.5 0.5 0.2 0.2 1.0", (50.0, 40.0, 20.0, 16.0, 1.0)),
        ("0 0.0 0.0 0.2 0.2 0.9", (0.0, 0.0, 20.0, 16.0, 0.9)),    # centre ends
        ("0 1.0 1.0 0.2 0.2 0.9", (100.0, 80.0, 20.0, 16.0, 0.9)),
        ("0 0.5 0.5 1.0 1.0 0.9", (50.0, 40.0, 100.0, 80.0, 0.9)),  # the widest box
    ], ids=["confidence-0", "confidence-1", "centre-0", "centre-1", "size-1"])
    def test_range_ends_accepted(self, line, expected):
        [d] = parse_detection_lines(line + "\n", 100, 80)
        assert (d.cx, d.cy, d.w, d.h, d.confidence) == pytest.approx(expected, abs=1e-12)

    def test_malformed_line_reports_line_number(self):
        text = "0 0.5 0.5 0.2 0.2 0.9\n0 0.5 0.5 0.2\n"
        with pytest.raises(ValueError, match=":2:"):
            parse_detection_lines(text, 100, 100, source="dets.txt")

    def test_non_numeric_field_reports_line_number(self):
        with pytest.raises(ValueError, match=":1:"):
            parse_detection_lines("0 0.5 x 0.2 0.2 0.9\n", 100, 100)

    # spellings float() and int() take that config numbers do not
    @pytest.mark.parametrize("line", ["0 0.2_5 0.5 0.2 0.2 0.9",
                                      "0 \uff10.\uff15 0.5 0.2 0.2 0.9",
                                      "+0 +0.5 0.5 0.2 0.2 0.9",
                                      "\u0660 0.5 0.5 0.2 0.2 0.9"],
                             ids=["underscore", "fullwidth", "plus", "arabic-indic-class"])
    def test_loose_number_spellings_rejected(self, line):
        with pytest.raises(ValueError, match=r"^dets.txt:2: non-numeric field"):
            parse_detection_lines(f"# header\n{line}\n", 100, 100, source="dets.txt")

    @pytest.mark.parametrize("line, expected", [
        ("0 1e-1 .5 0.2 0.2 0.9", (10.0, 50.0, 20.0, 20.0, 0.9)),
        (f"0 {0.25:.6f} {0.5:.6f} {0.125:.6f} {0.125:.6f} {0.9:.4f}",  # synth's format
         (25.0, 50.0, 12.5, 12.5, 0.9))], ids=["exponent-and-bare-point", "synth"])
    def test_config_number_spellings_accepted(self, line, expected):
        [d] = parse_detection_lines(line + "\n", 100, 100)
        assert (d.cx, d.cy, d.w, d.h, d.confidence) == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            parse_detection_lines("0 1.5 0.5 0.2 0.2 0.9\n", 100, 100)
        with pytest.raises(ValueError, match="confidence"):
            parse_detection_lines("0 0.5 0.5 0.2 0.2 1.9\n", 100, 100)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            parse_detection_lines("0 0.5 0.5 0.0 0.2 0.9\n", 100, 100)
        with pytest.raises(ValueError, match="nonpositive"):  # zero height
            parse_detection_lines("0 0.5 0.5 0.2 0.0 0.9\n", 100, 100)

    def test_pixel_round_trip_within_half_pixel(self):
        dets = parse_detection_lines("0 0.333333 0.777778 0.123456 0.2 0.5\n",
                                     width=640, height=480)
        cx, cy, w, h = normalized(dets[0], 640, 480)
        again = parse_detection_lines(f"0 {cx} {cy} {w} {h} 0.5\n", 640, 480)[0]
        assert abs(again.cx - dets[0].cx) < 0.5
        assert abs(again.cy - dets[0].cy) < 0.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_detection_file(tmp_path / "nope.txt", 10, 10)

    def test_directory_loader(self, tmp_path):
        (tmp_path / "a.txt").write_text("0 0.5 0.5 0.2 0.2 0.9\n")
        (tmp_path / "b.txt").write_text("")
        out = load_detections(tmp_path, {"a": (100, 100), "b": (50, 50)})
        assert set(out) == {"a", "b"}
        assert out["a"][0].cx == 50.0
        assert out["b"] == []

    def test_directory_loader_unknown_id(self, tmp_path):
        (tmp_path / "mystery.txt").write_text("0 0.5 0.5 0.2 0.2 0.9\n")
        with pytest.raises(ValueError, match="mystery"):
            load_detections(tmp_path, {"a": (100, 100)})


class TestSelectRoi:
    def d(self, conf):
        return DiscDetection(cx=10, cy=10, w=5, h=5, confidence=conf)

    def test_no_detections_falls_back_to_full_image(self):
        assert select_roi([]) is None

    def test_confident_detection_is_cropped(self):
        assert select_roi([self.d(0.9)], floor=0.25) == self.d(0.9)
        assert select_roi([self.d(0.25)], floor=0.25) == self.d(0.25)  # at the floor

    def test_argmax_over_confidences(self):
        assert select_roi([self.d(0.3), self.d(0.8)]).confidence == 0.8

    def test_all_below_floor_falls_back(self):
        assert select_roi([self.d(0.1), self.d(0.2)], floor=0.25) is None

    def test_pure_function(self):
        dets = [self.d(0.5)]
        assert select_roi(dets) == select_roi(dets) == self.d(0.5)


class TestDetectorAuc:
    def test_perfect_separation(self):
        assert detector_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_equal_is_chance(self):
        assert detector_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
