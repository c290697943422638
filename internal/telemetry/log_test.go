package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedLogger(w *bytes.Buffer, min Level) *Logger {
	l := NewLogger(w, min)
	l.now = func() time.Time { return time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC) }
	return l
}

func TestLoggerLineFormat(t *testing.T) {
	var buf bytes.Buffer
	l := fixedLogger(&buf, LevelInfo)
	l.Info("search done", String("proc", "ftp_retrieve_glob"), Int("findings", 3), F64("elapsed_ms", 1.5))
	got := buf.String()
	want := `{"ts":"2026-08-07T12:00:00Z","level":"info","msg":"search done","proc":"ftp_retrieve_glob","findings":3,"elapsed_ms":1.5}` + "\n"
	if got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
	// Every line must be valid JSON.
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := fixedLogger(&buf, LevelWarn)
	l.Log(LevelDebug, "d")
	l.Info("i")
	l.Log(LevelWarn, "w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"level":"warn"`) || !strings.Contains(lines[1], `"level":"error"`) {
		t.Fatalf("unexpected lines: %q", lines)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
		t.Error("Enabled disagrees with filtering")
	}
}

func TestLoggerEscaping(t *testing.T) {
	var buf bytes.Buffer
	l := fixedLogger(&buf, LevelDebug)
	l.Info("quote\" slash\\ nl\n tab\t ctl\x01", String("bad", "\xff\xfe"), String("uni", "héllo"))
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("escaped line is not valid JSON: %v\n%q", err, buf.String())
	}
	if m["msg"] != "quote\" slash\\ nl\n tab\t ctl\x01" {
		t.Errorf("msg round-trip = %q", m["msg"])
	}
	if m["bad"] != "��" {
		t.Errorf("invalid UTF-8 = %q, want replacement runes", m["bad"])
	}
	if m["uni"] != "héllo" {
		t.Errorf("multibyte UTF-8 mangled: %q", m["uni"])
	}
}

func TestLoggerNilSafety(t *testing.T) {
	var l *Logger
	if l.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
	// Must not panic.
	l.Info("x", Int("k", 1))
	l.Error("x")
	l.Log(LevelError, "x")
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := fixedLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Info("m", Int("g", int64(g)), Int("i", int64(i)))
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved/corrupt line %q: %v", line, err)
		}
	}
}
