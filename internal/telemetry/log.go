package telemetry

// Structured JSON event logging for the serving daemon: one JSON
// object per line, fields in call order, trace-ID-correlated when the
// request was traced. Hand-rolled encoding keeps a log line to one
// buffered write with no reflection and no intermediate maps, and the
// output is deterministic given deterministic field values — the serve
// tests decode lines back and assert on them.
//
// Like every type in this package, a nil *Logger is the disabled
// state: every method is a no-op, so callers log unconditionally.

import (
	"io"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level as it appears in the "level" field.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// Field is one typed key/value of a log line. Construct with String,
// Int or F64.
type Field struct {
	Key  string
	kind uint8 // 0 string, 1 int, 2 float
	str  string
	num  int64
	f    float64
}

// String makes a string-valued field.
func String(k, v string) Field { return Field{Key: k, kind: 0, str: v} }

// Int makes an integer-valued field.
func Int(k string, v int64) Field { return Field{Key: k, kind: 1, num: v} }

// F64 makes a float-valued field.
func F64(k string, v float64) Field { return Field{Key: k, kind: 2, f: v} }

// Logger writes leveled JSON lines to one writer. Safe for concurrent
// use; a nil Logger discards everything.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
	buf []byte
	// now is the clock; replaceable in tests for deterministic output.
	now func() time.Time
}

// NewLogger builds a logger writing lines at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min, now: time.Now}
}

// Enabled reports whether lines at the given level are written; false
// on a nil logger.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

// Log writes one line: {"ts":...,"level":...,"msg":...,<fields...>}.
// No-op on a nil logger or a level below the minimum.
func (l *Logger) Log(lv Level, msg string, fields ...Field) {
	if !l.Enabled(lv) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	b = append(b, `{"ts":"`...)
	b = l.now().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":"`...)
	b = append(b, lv.String()...)
	b = append(b, `","msg":`...)
	b = appendJSONString(b, msg)
	for _, f := range fields {
		b = append(b, ',')
		b = appendJSONString(b, f.Key)
		b = append(b, ':')
		switch f.kind {
		case 0:
			b = appendJSONString(b, f.str)
		case 1:
			b = strconv.AppendInt(b, f.num, 10)
		default:
			b = strconv.AppendFloat(b, f.f, 'f', -1, 64)
		}
	}
	b = append(b, '}', '\n')
	l.buf = b
	_, _ = l.w.Write(b)
}

// Info and Error are Log at the respective level.
func (l *Logger) Info(msg string, fields ...Field)  { l.Log(LevelInfo, msg, fields...) }
func (l *Logger) Error(msg string, fields ...Field) { l.Log(LevelError, msg, fields...) }

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping
// quotes, backslashes, control characters and invalid UTF-8.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			case c < 0x20:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				b = append(b, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			continue
		}
		b = append(b, s[i:i+size]...)
		i += size
	}
	return append(b, '"')
}
