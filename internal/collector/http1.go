package collector

// A small HTTP/1.1 client for the explorer API: each transport method
// (slot) keeps one connection alive and drives it on the calling
// goroutine, writing requests from buffers it reuses and reading
// responses with the framing rules of net/http's ReadResponse. It speaks
// plain http:// only, because explorerd serves nothing else.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// readBufferSize is each connection's read buffer, net/http's size.
	// It also bounds a chunk-size line and a chunked body's trailer, as
	// in net/http.
	readBufferSize = 4 << 10
	// maxHeaderBytes caps one response's status line and header block.
	maxHeaderBytes = 64 << 10
)

var (
	errHeaderTooLarge = errors.New("collector: response header over 64 KiB")
	errMalformed      = errors.New("collector: malformed HTTP response")
	errLineTooLong    = errors.New("collector: chunk-size line too long")
	errTrailerEOF     = errors.New("collector: unexpected EOF reading trailer")
)

// conn is one slot's HTTP/1.1 connection: dialled on first use, kept
// alive across calls while every response is read to its end, and cut
// when the transport's Context is cancelled.
type conn struct {
	// mu guards nc against the cancel hook, which closes it from
	// another goroutine; the calling goroutine is the only writer. A
	// non-nil nc between calls has carried whole responses, so one that
	// fails before the next response's first byte was closed by the
	// server while idle.
	mu sync.Mutex
	nc net.Conn

	// ctx is the attempt's context; watched is the context the cancel
	// hook is registered on and stop unregisters it.
	ctx     context.Context
	watched context.Context
	stop    func() bool

	resp response
}

// roundTrip sends req, one whole request, to addr and reads the
// response head into c.resp; the caller then reads the body through
// c.resp and ends the exchange with release. deadline bounds the dial,
// the request and the whole response. A reused connection that fails
// before the response's first byte is redialled and sent req once more.
func (c *conn) roundTrip(ctx context.Context, addr string, req []byte, deadline time.Time) error {
	c.ctx = ctx
	c.watch(ctx)
	for {
		reused := c.nc != nil
		if !reused {
			if err := c.dial(ctx, addr, deadline); err != nil {
				return c.fail(err)
			}
		}
		c.nc.SetDeadline(deadline) //nolint:errcheck // a dead conn fails the write
		_, err := c.nc.Write(req)
		if err == nil {
			_, err = c.resp.br.Peek(1)
		}
		if err != nil {
			if reused && c.ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
				c.close()
				continue
			}
			return c.fail(err)
		}
		if err := c.resp.readHead(); err != nil {
			return c.fail(err)
		}
		return nil
	}
}

// dial opens a fresh connection to addr and resets the read buffer onto
// it.
func (c *conn) dial(ctx context.Context, addr string, deadline time.Time) error {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.nc = nc
	c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		// Cancelled before the hook could see the new connection.
		return err
	}
	if c.resp.br == nil {
		c.resp.br = bufio.NewReaderSize(nc, readBufferSize)
	} else {
		c.resp.br.Reset(nc)
	}
	return nil
}

// fail closes the connection after a failed exchange and returns err,
// or the context's error when a cancellation cut the exchange.
func (c *conn) fail(err error) error {
	c.close()
	if cerr := c.ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// release ends an exchange whose body has been read as far as the
// caller wants: the connection stays for the next request only when
// the body was read to its end and the response did not end the
// connection.
func (c *conn) release() {
	if !c.resp.done || c.resp.head.close {
		c.close()
	}
}

// timedOut reports whether the attempt's deadline, not a cancellation,
// cut the last read short.
func (c *conn) timedOut(err error) bool {
	return c.ctx.Err() == nil && errors.Is(err, os.ErrDeadlineExceeded)
}

// close drops the connection, if any.
func (c *conn) close() {
	c.mu.Lock()
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
	c.mu.Unlock()
}

// watch registers the cancel hook on ctx, once per context: when ctx is
// done the hook closes the connection, which ends any read or write in
// flight.
func (c *conn) watch(ctx context.Context) {
	if c.watched == ctx {
		return
	}
	c.unwatch()
	c.watched = ctx
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, c.cut)
	}
}

// cut is the cancel hook: it closes the connection in flight, which the
// calling goroutine then drops.
func (c *conn) cut() {
	c.mu.Lock()
	if c.nc != nil {
		c.nc.Close()
	}
	c.mu.Unlock()
}

// unwatch removes the cancel hook.
func (c *conn) unwatch() {
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
	c.watched = nil
}

// endpoint is a base URL resolved for the client: the address to dial,
// the Host header and the path prefix every request target starts with.
type endpoint struct {
	addr, host, prefix string
}

// resolveBase parses an http:// base URL.
func resolveBase(base string) (endpoint, error) {
	u, err := url.Parse(base)
	if err != nil {
		return endpoint{}, err
	}
	if u.Scheme != "http" || u.Host == "" {
		return endpoint{}, fmt.Errorf("collector: base URL %q: want http://host[:port]", base)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return endpoint{
		addr:   net.JoinHostPort(u.Hostname(), port),
		host:   u.Host,
		prefix: strings.TrimSuffix(u.EscapedPath(), "/"),
	}, nil
}

// respHead is what the collector reads of a response head.
type respHead struct {
	status int
	// length is the body's declared Content-Length, or -1 when the body
	// is chunked or runs to EOF.
	length int64
	// close reports that the connection ends with this response.
	close bool
	// retryAfter is the first Retry-After value, when hasRetryAfter.
	retryAfter    []byte
	hasRetryAfter bool
}

// Body framings.
const (
	bodyNone = iota
	bodyLength
	bodyChunked
	bodyToEOF
)

// response reads one HTTP/1.1 response at a time off br: readHead
// parses the status line and header block, then Read yields the body.
// It accepts and frames exactly as net/http's ReadResponse does for a
// GET: the status line, header-line validation and continuation lines
// of textproto.ReadMIMEHeader, Transfer-Encoding and Content-Length
// precedence, bodiless statuses, the chunked decoder's rules and
// trailer, and a body that runs to EOF when no length is declared. It
// refuses a head over maxHeaderBytes, which net/http does not. Nothing
// in it allocates once its buffers have grown to the largest line seen.
type response struct {
	br   *bufio.Reader
	head respHead

	// n counts the head's bytes against maxHeaderBytes; long holds a
	// line longer than br's buffer and cont a line with its
	// continuations; cl is the first Content-Length value.
	n    int
	long []byte
	cont []byte
	cl   []byte

	// Body state: the framing, the bytes left in the body or current
	// chunk, the chunked decoder's state, done once the body has been
	// read to its end, and the error that stopped it.
	mode     int
	left     uint64
	checkEnd bool
	excess   int64
	crlf     [2]byte
	done     bool
	err      error
}

// fields tallies the header fields that decide a response's framing.
type fields struct {
	cl, te               int  // Content-Length and Transfer-Encoding lines
	clDiffer             bool // a Content-Length value differs from the first
	teChunked            bool // the first Transfer-Encoding is "chunked"
	connClose, keepAlive bool // Connection tokens
	badTrailer           bool // Trailer names a framing field
}

// readHead reads the status line and header block and sets up the body.
func (r *response) readHead() error {
	r.n = 0
	r.head = respHead{length: -1, retryAfter: r.head.retryAfter[:0]}
	r.mode, r.left, r.checkEnd, r.excess, r.done, r.err = bodyNone, 0, false, 0, true, nil
	line, err := r.readLine()
	if err != nil {
		return unexpectedEOF(err)
	}
	proto, status, ok := bytes.Cut(line, []byte{' '})
	if !ok {
		return errMalformed
	}
	status = bytes.TrimLeft(status, " ")
	code, _, _ := bytes.Cut(status, []byte{' '})
	r.head.status, ok = parseStatus(code)
	if !ok {
		return errMalformed
	}
	major, minor, ok := parseVersion(proto)
	if !ok {
		return errMalformed
	}
	var f fields
	if err := r.readFields(&f); err != nil {
		return unexpectedEOF(err)
	}
	return r.frame(major, minor, &f)
}

// unexpectedEOF maps an EOF inside a head to io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// parseStatus reads a three-byte status code as strconv.Atoi does,
// refusing a negative one.
func parseStatus(b []byte) (int, bool) {
	if len(b) != 3 {
		return 0, false
	}
	neg := false
	switch b[0] {
	case '+', '-':
		neg = b[0] == '-'
		b = b[1:]
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, !neg || n == 0
}

// parseVersion reads "HTTP/X.Y" as http.ParseHTTPVersion does.
func parseVersion(b []byte) (major, minor int, ok bool) {
	if len(b) != len("HTTP/X.Y") || string(b[:5]) != "HTTP/" || b[6] != '.' ||
		!isDigit(b[5]) || !isDigit(b[7]) {
		return 0, 0, false
	}
	return int(b[5] - '0'), int(b[7] - '0'), true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// frame applies net/http's readTransfer to the head: whether the
// connection closes, and how the body is delimited.
func (r *response) frame(major, minor int, f *fields) error {
	h := &r.head
	switch {
	case major < 1:
		h.close = true
	case major == 1 && minor == 0:
		h.close = f.connClose || !f.keepAlive
	default:
		h.close = f.connClose
	}
	// A 1xx response is followed by the final one on the same
	// connection, which this client does not read: the connection ends.
	h.close = h.close || h.status < 200
	if major == 0 && minor == 0 {
		major, minor = 1, 1
	}
	chunked := false
	if f.te > 0 && (major > 1 || major == 1 && minor >= 1) {
		if f.te != 1 || !f.teChunked {
			return errors.New("collector: unsupported transfer encoding")
		}
		chunked = true
	}
	if f.clDiffer {
		return errors.New("collector: conflicting Content-Length headers")
	}
	allowed := bodyAllowed(h.status)
	length := int64(-1)
	switch {
	case !allowed:
		length = 0
	case chunked:
	case f.cl > 0:
		n, ok := parseLength(r.cl)
		if !ok {
			return errors.New("collector: bad Content-Length")
		}
		length = n
	}
	if chunked && f.badTrailer {
		return errors.New("collector: bad trailer key")
	}
	switch {
	case chunked:
		if allowed {
			r.mode, r.done = bodyChunked, false
		}
	case length > 0:
		h.length = length
		r.mode, r.left, r.done = bodyLength, uint64(length), false
	case length < 0:
		h.close = true
		r.mode, r.done = bodyToEOF, false
	}
	return nil
}

// bodyAllowed reports whether a response with this status may carry a
// body.
func bodyAllowed(status int) bool {
	return !(status >= 100 && status <= 199 || status == 204 || status == 304)
}

// parseLength reads a Content-Length value: decimal digits only, below
// 2^63.
func parseLength(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if !isDigit(c) || n > (1<<63-1)/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		if n > 1<<63-1 {
			return 0, false
		}
	}
	return int64(n), true
}

// readLine reads one line, without its "\n" or "\r\n", as
// bufio.Reader.ReadLine joins it: a line cut short by an error is
// returned whole, and the error comes back on the next read. Every
// byte counts against maxHeaderBytes.
func (r *response) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull && r.n+len(r.long) <= maxHeaderBytes {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if r.n += len(line); r.n > maxHeaderBytes {
		return nil, errHeaderTooLarge
	}
	if len(line) == 0 {
		return nil, err
	}
	if line[len(line)-1] == '\n' {
		drop := 1
		if len(line) > 1 && line[len(line)-2] == '\r' {
			drop = 2
		}
		line = line[:len(line)-drop]
	}
	return line, nil
}

// readFields reads a header block through its blank line, validating
// each line as textproto.ReadMIMEHeader does, and tallies into f the
// fields that frame the body (f is nil for a trailer, whose fields are
// dropped).
func (r *response) readFields(f *fields) error {
	if b, err := r.br.Peek(1); err == nil && (b[0] == ' ' || b[0] == '\t') {
		return errMalformed
	}
	for {
		kv, err := r.readContinued()
		if len(kv) == 0 {
			return err
		}
		k, v, _ := bytes.Cut(kv, []byte{':'})
		if !validKey(k) {
			return errMalformed
		}
		for _, c := range v {
			if !validValueByte(c) {
				return errMalformed
			}
		}
		if f != nil {
			r.tally(f, k, bytes.TrimLeft(v, " \t"))
		}
	}
}

// readContinued reads one header line and any continuation lines after
// it (lines that start with a space or tab), joined by single spaces
// and trimmed, as textproto's readContinuedLineSlice does.
func (r *response) readContinued() ([]byte, error) {
	line, err := r.readLine()
	if err != nil || len(line) == 0 {
		return line, err
	}
	if bytes.IndexByte(line, ':') < 0 {
		return nil, errMalformed
	}
	// A peek at buffered bytes keeps line valid; one that refills the
	// buffer would move it, so the line is copied first.
	if r.br.Buffered() > 0 {
		if b, _ := r.br.Peek(1); b[0] != ' ' && b[0] != '\t' {
			return trim(line), nil
		}
	}
	r.cont = append(r.cont[:0], trim(line)...)
	for r.skipSpace() > 0 {
		if r.n > maxHeaderBytes {
			return nil, errHeaderTooLarge
		}
		r.cont = append(r.cont, ' ')
		line, err := r.readLine()
		if err != nil {
			if err == errHeaderTooLarge {
				return nil, err
			}
			break
		}
		r.cont = append(r.cont, trim(line)...)
	}
	return r.cont, nil
}

// skipSpace consumes spaces and tabs, counted against maxHeaderBytes,
// and reports how many.
func (r *response) skipSpace() int {
	n := 0
	for r.n+n <= maxHeaderBytes {
		c, err := r.br.ReadByte()
		if err != nil {
			break
		}
		if c != ' ' && c != '\t' {
			r.br.UnreadByte() //nolint:errcheck // the byte was just read
			break
		}
		n++
	}
	r.n += n
	return n
}

// trim cuts leading and trailing spaces and tabs.
func trim(s []byte) []byte {
	return bytes.Trim(s, " \t")
}

// tally records one header field into f.
func (r *response) tally(f *fields, k, v []byte) {
	switch {
	case asciiEqualFold(k, "Content-Length"):
		if f.cl == 0 {
			r.cl = append(r.cl[:0], v...)
		} else if !bytes.Equal(v, r.cl) {
			f.clDiffer = true
		}
		f.cl++
	case asciiEqualFold(k, "Transfer-Encoding"):
		if f.te == 0 {
			f.teChunked = asciiEqualFold(v, "chunked")
		}
		f.te++
	case asciiEqualFold(k, "Connection"):
		f.connClose = f.connClose || hasToken(v, "close")
		f.keepAlive = f.keepAlive || hasToken(v, "keep-alive")
	case asciiEqualFold(k, "Retry-After"):
		if !r.head.hasRetryAfter {
			r.head.retryAfter = append(r.head.retryAfter[:0], v...)
			r.head.hasRetryAfter = true
		}
	case asciiEqualFold(k, "Trailer"):
		f.badTrailer = f.badTrailer || hasToken(v, "Transfer-Encoding") ||
			hasToken(v, "Trailer") || hasToken(v, "Content-Length")
	}
}

// hasToken reports whether the comma-separated list v holds tok,
// ignoring ASCII case and the spaces and tabs around each element.
func hasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		var t []byte
		t, v, _ = bytes.Cut(v, []byte{','})
		if asciiEqualFold(trim(t), tok) {
			return true
		}
	}
	return false
}

// asciiEqualFold reports whether b equals s, ignoring ASCII case.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if lower(b[i]) != lower(s[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// validKey reports whether k is a header name textproto accepts: token
// bytes, or spaces.
func validKey(k []byte) bool {
	if len(k) == 0 {
		return false
	}
	for _, c := range k {
		if c != ' ' && !isTokenByte(c) {
			return false
		}
	}
	return true
}

// isTokenByte reports whether c may appear in an HTTP token (RFC 7230).
func isTokenByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', isDigit(c):
		return true
	}
	return strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// validValueByte reports whether c may appear in a header value:
// visible ASCII, space, tab, or obs-text.
func validValueByte(c byte) bool {
	return c >= 0x20 && c != 0x7f || c == '\t'
}

// Read implements io.Reader over the body readHead framed. EOF marks
// the body's end; a body cut short ends in io.ErrUnexpectedEOF, as in
// net/http.
func (r *response) Read(p []byte) (int, error) {
	if r.done {
		return 0, io.EOF
	}
	if r.err != nil {
		return 0, r.err
	}
	var n int
	var err error
	switch r.mode {
	case bodyLength:
		n, err = r.readLength(p)
	case bodyChunked:
		n, err = r.readChunked(p)
	default:
		n, err = r.br.Read(p)
	}
	if err == io.EOF {
		r.done = true
		if r.mode == bodyChunked {
			if terr := r.readTrailer(); terr != nil {
				r.done = false
				err = terr
			}
		}
	}
	if err != nil && err != io.EOF {
		r.err = err
	}
	return n, err
}

// readLength reads a body of declared length.
func (r *response) readLength(p []byte) (int, error) {
	if uint64(len(p)) > r.left {
		p = p[:r.left]
	}
	n, err := r.br.Read(p)
	r.left -= uint64(n)
	switch {
	case r.left == 0:
		return n, io.EOF
	case err == io.EOF:
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

// readChunked is net/http's chunked decoder: each chunk's hexadecimal
// size line (extensions dropped, overhead bounded), its data, and the
// CRLF after it, until the zero-size chunk returns io.EOF.
func (r *response) readChunked(p []byte) (n int, err error) {
	for {
		if r.checkEnd {
			if _, err := io.ReadFull(r.br, r.crlf[:]); err != nil {
				return n, unexpectedEOF(err)
			}
			if r.crlf != [2]byte{'\r', '\n'} {
				return n, errors.New("collector: malformed chunked encoding")
			}
			r.checkEnd = false
		}
		if r.left == 0 {
			if err := r.beginChunk(); err != nil {
				return n, err
			}
			continue
		}
		if len(p) == 0 {
			return n, nil
		}
		rbuf := p
		if uint64(len(rbuf)) > r.left {
			rbuf = rbuf[:r.left]
		}
		m, err := r.br.Read(rbuf)
		n += m
		p = p[m:]
		r.left -= uint64(m)
		if err != nil {
			return n, unexpectedEOF(err)
		}
		r.checkEnd = r.left == 0
	}
}

// beginChunk reads one chunk-size line; the zero-size chunk returns
// io.EOF.
func (r *response) beginChunk() error {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return errLineTooLong
		}
		return unexpectedEOF(err)
	}
	if len(line) >= readBufferSize {
		return errLineTooLong
	}
	r.excess += int64(len(line)) + 2
	line = bytes.TrimRight(line, " \t\r\n")
	line, _, _ = bytes.Cut(line, []byte{';'})
	if r.left, err = parseHex(line); err != nil {
		return err
	}
	r.excess -= 16 + (2 * int64(r.left))
	r.excess = max(r.excess, 0)
	if r.excess > 16*1024 {
		return errors.New("collector: chunked encoding contains too much non-data")
	}
	if r.left == 0 {
		return io.EOF
	}
	return nil
}

// parseHex reads a chunk size: at most 16 hexadecimal digits.
func parseHex(v []byte) (n uint64, err error) {
	if len(v) == 0 {
		return 0, errors.New("collector: empty chunk length")
	}
	for i, c := range v {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, errors.New("collector: invalid byte in chunk length")
		}
		if i == 16 {
			return 0, errors.New("collector: chunk length too large")
		}
		n = n<<4 | uint64(c)
	}
	return n, nil
}

// readTrailer reads what follows the zero-size chunk: the final CRLF,
// or a trailer block that must end within the read buffer, parsed and
// dropped.
func (r *response) readTrailer() error {
	buf, err := r.br.Peek(2)
	if string(buf) == "\r\n" {
		r.br.Discard(2) //nolint:errcheck // the bytes are buffered
		return nil
	}
	if len(buf) < 2 {
		return errTrailerEOF
	}
	if err != nil {
		return err
	}
	if !upcomingDoubleCRLF(r.br) {
		return errors.New("collector: suspiciously long trailer after chunked body")
	}
	r.n = 0
	if err := r.readFields(nil); err != nil {
		if err == io.EOF {
			return errTrailerEOF
		}
		return err
	}
	return nil
}

// upcomingDoubleCRLF reports whether "\r\n\r\n" ends some prefix of
// what br holds or can buffer.
func upcomingDoubleCRLF(br *bufio.Reader) bool {
	for size := 4; ; size++ {
		buf, err := br.Peek(size)
		if bytes.HasSuffix(buf, []byte("\r\n\r\n")) {
			return true
		}
		if err != nil {
			return false
		}
	}
}

// discard reads and drops at most max body bytes.
func (r *response) discard(max int64) {
	var buf [512]byte
	for max > 0 && !r.done && r.err == nil {
		n := int64(len(buf))
		if n > max {
			n = max
		}
		m, _ := r.Read(buf[:n])
		if m == 0 {
			return
		}
		max -= int64(m)
	}
}

// appendRequest appends one request to dst: the request line, Host, an
// optional traceparent and, with a body, its Content-Type and
// Content-Length, then the body.
func appendRequest(dst []byte, method string, ep *endpoint, path string, query []byte, traceparent string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, ep.prefix...)
	dst = append(dst, path...)
	if len(query) > 0 {
		dst = append(dst, '?')
		dst = append(dst, query...)
	}
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, ep.host...)
	dst = append(dst, "\r\n"...)
	if traceparent != "" {
		dst = append(dst, "Traceparent: "...)
		dst = append(dst, traceparent...)
		dst = append(dst, "\r\n"...)
	}
	if body != nil {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}
