package pipeline

import (
	"bufio"
	"bytes"
	"io"
)

// lineReader is the scanning core the streaming sources share: a
// growable window over the input in which newlines are found with
// bytes.IndexByte, and lines are returned as zero-copy slices of the
// window. It reproduces bufio.Scanner's ScanLines contract exactly
// where JSONLSource relies on it — the differential suite in
// io_scan_test.go pins both sources against their encoding/json- and
// encoding/csv-based references:
//
//   - a returned line excludes its '\n' terminator (hadNL reports
//     whether one was consumed; callers own any '\r' trimming);
//   - a final line without a terminator is still returned, for read
//     errors as well as io.EOF (bufio.Scanner emits the partial token
//     before surfacing the error);
//   - with max > 0, buffering max bytes without finding a newline is
//     bufio.ErrTooLong — the window never grows past max, matching
//     Scanner's token size limit byte for byte;
//   - 100 consecutive empty reads without error are io.ErrNoProgress,
//     Scanner's defense against broken readers.
type lineReader struct {
	r          io.Reader
	buf        []byte
	start, end int
	max        int   // max buffered line bytes (0 = unlimited)
	err        error // sticky error from r, io.EOF included
	hadNL      bool  // last returned line ended in '\n'
	empties    int   // consecutive zero-byte nil-error reads
}

// lineBufSize is the initial window size, matching the 64 KiB initial
// buffer the bufio.Scanner-based decoder used.
const lineBufSize = 64 * 1024

func newLineReader(r io.Reader, max int) *lineReader {
	size := lineBufSize
	if max > 0 && max < size {
		size = max
	}
	return &lineReader{r: r, buf: make([]byte, size), max: max}
}

// next returns the next line. The slice aliases the window and is
// valid only until the following next call.
func (lr *lineReader) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(lr.buf[lr.start:lr.end], '\n'); i >= 0 {
			line := lr.buf[lr.start : lr.start+i]
			lr.start += i + 1
			lr.hadNL = true
			return line, nil
		}
		if lr.err != nil {
			if lr.end > lr.start {
				line := lr.buf[lr.start:lr.end]
				lr.start = lr.end
				lr.hadNL = false
				return line, nil
			}
			return nil, lr.err
		}
		if lr.max > 0 && lr.end-lr.start >= lr.max {
			return nil, bufio.ErrTooLong
		}
		lr.fill()
	}
}

// rest returns the buffered bytes after the last returned line —
// CSVSource's takeover hands them (plus the unconsumed reader) to
// encoding/csv.
func (lr *lineReader) rest() []byte { return lr.buf[lr.start:lr.end] }

// tail returns the reader for everything past the buffered bytes. A
// sticky error is replayed through a wrapper, because the underlying
// reader already surrendered it once and need not repeat itself.
func (lr *lineReader) tail() io.Reader {
	if lr.err != nil {
		return &errReader{err: lr.err}
	}
	return lr.r
}

type errReader struct{ err error }

func (e *errReader) Read([]byte) (int, error) { return 0, e.err }

// fill slides the window and reads more input, growing the buffer
// (never past max) when a line outspans it.
func (lr *lineReader) fill() {
	if lr.start > 0 {
		copy(lr.buf, lr.buf[lr.start:lr.end])
		lr.end -= lr.start
		lr.start = 0
	}
	if lr.end == len(lr.buf) {
		size := len(lr.buf) * 2
		if lr.max > 0 && size > lr.max {
			size = lr.max
		}
		grown := make([]byte, size)
		copy(grown, lr.buf[:lr.end])
		lr.buf = grown
	}
	n, err := lr.r.Read(lr.buf[lr.end:])
	lr.end += n
	if err != nil {
		lr.err = err
		return
	}
	if n > 0 {
		lr.empties = 0
	} else if lr.empties++; lr.empties >= 100 {
		lr.err = io.ErrNoProgress
	}
}
