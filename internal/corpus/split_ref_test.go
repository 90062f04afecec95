package corpus

import (
	"strconv"

	"gcx/internal/xmlstream"
)

// refDoc is one document as referenceSplit frames it: its bytes, or
// tooLarge for a document over the cap (whose bytes are dropped).
type refDoc struct {
	data     []byte
	tooLarge bool
}

func (d refDoc) String() string {
	if d.tooLarge {
		return "(over the cap)"
	}
	return strconv.Quote(string(d.data))
}

// referenceSplit is the splitter's oracle: the framing rules as a plain
// thirteen-state machine that takes every byte of the input one at a
// time — no window, no structural index, no run skipping, nothing to
// resume across a refill. It is the machine the production splitter
// stepped before it learned to hop, minus its accelerations, and shares
// only the state names and the two byte-class predicates with it. max is
// the per-document byte cap (0: none).
func referenceSplit(input []byte, max int64) []refDoc {
	var docs []refDoc
	for pos := 0; ; {
		var (
			doc           []byte
			state         = spText
			rootSeen      bool   // a real element tag was completed
			sawJunk       bool   // non-whitespace character data before any root
			depth         int    // open element depth
			closeTag      bool   // current tag is </...>
			prevSlash     bool   // last in-tag byte was '/' (self-closing detection)
			quote         byte   // active attribute or literal quote
			seq           string // spBangSeq target
			seqPos        int
			commentDashes int  // consecutive '-' seen in a comment
			piQuestion    bool // last PI byte was '?'
			cdataBrackets int  // consecutive ']' seen in spCDATA
			declDepth     int
			declPfx       int  // progress through "<!--" inside a declaration
			started       bool // first document byte kept
			closed        bool // the root element's end was reached
		)
		for pos < len(input) && !closed {
			c := input[pos]
			if !started {
				if xmlstream.IsSpace(c) {
					pos++
					continue
				}
				if c == 0xEF && pos+2 < len(input) && input[pos+1] == 0xBB && input[pos+2] == 0xBF {
					pos += 3
					continue
				}
				started = true
			}
			pos++
			doc = append(doc, c)

			switch state {
			case spText:
				if c == '<' {
					state = spLT
				} else if !rootSeen && !xmlstream.IsSpace(c) {
					sawJunk = true
				}
			case spLT:
				switch {
				case c == '!':
					state = spBang
				case c == '?':
					state, piQuestion = spPI, false
				case c == '/':
					state, closeTag, prevSlash = spTag, true, false
				case xmlstream.IsNameStart(c):
					state, closeTag, prevSlash = spTag, false, false
				default:
					state = spText
					if !rootSeen {
						sawJunk = true
					}
				}
			case spBang:
				switch c {
				case '-':
					state, seq, seqPos = spBangSeq, seqComment, 0
				case '[':
					state, seq, seqPos = spBangSeq, seqCDATA, 0
				case '>':
					state = spText
				default:
					state, declDepth, declPfx = spDecl, 1, 0
				}
			case spBangSeq:
				switch {
				case c == seq[seqPos]:
					seqPos++
					if seqPos == len(seq) {
						if seq == seqComment {
							state, commentDashes = spComment, 0
						} else {
							state, cdataBrackets = spCDATA, 0
						}
					}
				case c == '>':
					state = spText
				default:
					state, declDepth, declPfx = spDecl, 1, 0
				}
			case spComment, spDeclComment:
				switch {
				case c == '-':
					commentDashes++
				case c == '>' && commentDashes >= 2:
					if state == spComment {
						state = spText
					} else {
						state = spDecl
					}
				default:
					commentDashes = 0
				}
			case spPI, spDeclPI:
				if c == '>' && piQuestion {
					if state == spPI {
						state = spText
					} else {
						state = spDecl
					}
				} else {
					piQuestion = c == '?'
				}
			case spCDATA:
				switch {
				case c == ']':
					cdataBrackets++
				case c == '>' && cdataBrackets >= 2:
					state = spText
				default:
					cdataBrackets = 0
				}
			case spDecl:
				switch {
				case declPfx == 1 && c == '?':
					declPfx = 0
					declDepth-- // undo the '<' that started the PI
					state, piQuestion = spDeclPI, false
				case declPfx == 3 && c == '-':
					declPfx = 0
					declDepth-- // undo the '<' that started the comment
					state, commentDashes = spDeclComment, 0
				default:
					switch {
					case c == '<':
						declPfx = 1
					case declPfx == 1 && c == '!':
						declPfx = 2
					case declPfx == 2 && c == '-':
						declPfx = 3
					default:
						declPfx = 0
					}
					switch c {
					case '"', '\'':
						state, quote = spDeclQuote, c
					case '<':
						declDepth++
					case '>':
						declDepth--
						if declDepth == 0 {
							state = spText
						}
					}
				}
			case spDeclQuote:
				if c == quote {
					state = spDecl
				}
			case spTagQuote:
				if c == quote {
					state = spTag
				}
			case spTag:
				switch {
				case c == '"' || c == '\'':
					state, quote = spTagQuote, c
					prevSlash = false
				case c == '/':
					prevSlash = true
				case c == '>':
					state = spText
					rootSeen = true
					switch {
					case closeTag:
						depth--
					case prevSlash:
						// self-closing: depth unchanged
					default:
						depth++
					}
					closed = depth <= 0
				default:
					prevSlash = false
				}
			}
		}
		if !closed && (!started || (!rootSeen && !sawJunk && state == spText)) {
			// Nothing, or only trailing misc: clean end of the corpus. (A
			// truncated final document falls through and is framed.)
			if max > 0 && int64(len(doc)) > max {
				docs = append(docs, refDoc{tooLarge: true})
			}
			return docs
		}
		if max > 0 && int64(len(doc)) > max {
			docs = append(docs, refDoc{tooLarge: true})
		} else {
			docs = append(docs, refDoc{data: doc})
		}
	}
}
