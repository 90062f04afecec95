// Package xmarkdtd holds the schema of the XMark documents
// internal/xmark generates, apart from the generator: the gcx API exports
// it (gcx.XMarkDTD), and what links gcx must not link the generator.
package xmarkdtd

// DTD is the document type definition of the documents internal/xmark
// produces — the XMark auction schema restricted to the structure actually
// emitted (attributes are declared for documentation; the engine converts
// them to subelements, which the content models below already account for
// by listing them as leading optional children after conversion is
// applied by the tokenizer; since converted attributes precede all other
// children, the models list them first).
//
// It is used by the schema-aware benchmarks: the paper provided the XMark
// DTD to the FluXQuery engine (Section 7), and this constant plays the
// same role for this repository's schema-aware mode.
const DTD = `
<!ELEMENT site            (regions, categories, catgraph, people, open_auctions, closed_auctions)>
<!ELEMENT regions         (africa, asia, australia, europe, namerica, samerica)>
<!ELEMENT africa          (item*)>
<!ELEMENT asia            (item*)>
<!ELEMENT australia       (item*)>
<!ELEMENT europe          (item*)>
<!ELEMENT namerica        (item*)>
<!ELEMENT samerica        (item*)>
<!ELEMENT item            (id, location, quantity, name, payment, description, shipping, incategory+, mailbox)>
<!ELEMENT id              (#PCDATA)>
<!ELEMENT location        (#PCDATA)>
<!ELEMENT quantity        (#PCDATA)>
<!ELEMENT name            (#PCDATA)>
<!ELEMENT payment         (#PCDATA)>
<!ELEMENT shipping        (#PCDATA)>
<!ELEMENT incategory      (category)>
<!ELEMENT category        (id?, name?, description?)>
<!ELEMENT mailbox         (mail*)>
<!ELEMENT mail            (from, to, date, text)>
<!ELEMENT from            (#PCDATA)>
<!ELEMENT to              (#PCDATA)>
<!ELEMENT date            (#PCDATA)>
<!ELEMENT description     (text | parlist)>
<!ELEMENT text            (#PCDATA)>
<!ELEMENT parlist         (listitem+)>
<!ELEMENT listitem        (text)>
<!ELEMENT categories      (category*)>
<!ELEMENT catgraph        (edge*)>
<!ELEMENT edge            (from?, to?)>
<!ELEMENT people          (person*)>
<!ELEMENT person          (id, name, emailaddress, phone?, address?, homepage?, creditcard?, profile, watches?)>
<!ELEMENT emailaddress    (#PCDATA)>
<!ELEMENT phone           (#PCDATA)>
<!ELEMENT address         (street, city, country, zipcode)>
<!ELEMENT street          (#PCDATA)>
<!ELEMENT city            (#PCDATA)>
<!ELEMENT country         (#PCDATA)>
<!ELEMENT zipcode         (#PCDATA)>
<!ELEMENT homepage        (#PCDATA)>
<!ELEMENT creditcard      (#PCDATA)>
<!ELEMENT profile         (income?, interest*, education?, gender?, business, age?)>
<!ELEMENT income          (#PCDATA)>
<!ELEMENT interest        (category)>
<!ELEMENT education       (#PCDATA)>
<!ELEMENT gender          (#PCDATA)>
<!ELEMENT business        (#PCDATA)>
<!ELEMENT age             (#PCDATA)>
<!ELEMENT watches         (watch*)>
<!ELEMENT watch           (open_auction)>
<!ELEMENT open_auctions   (open_auction*)>
<!ELEMENT open_auction    (id, initial, reserve?, bidder*, current, privacy?, itemref, seller, annotation, quantity, type, interval)>
<!ELEMENT initial         (#PCDATA)>
<!ELEMENT reserve         (#PCDATA)>
<!ELEMENT bidder          (date, time, personref, increase)>
<!ELEMENT time            (#PCDATA)>
<!ELEMENT personref       (person)>
<!ELEMENT increase        (#PCDATA)>
<!ELEMENT current         (#PCDATA)>
<!ELEMENT privacy         (#PCDATA)>
<!ELEMENT itemref         (item)>
<!ELEMENT seller          (person)>
<!ELEMENT annotation      (author, description, happiness)>
<!ELEMENT author          (person)>
<!ELEMENT happiness       (#PCDATA)>
<!ELEMENT type            (#PCDATA)>
<!ELEMENT interval        (start, end)>
<!ELEMENT start           (#PCDATA)>
<!ELEMENT end             (#PCDATA)>
<!ELEMENT closed_auctions (closed_auction*)>
<!ELEMENT closed_auction  (seller, buyer, itemref, price, date, quantity, type, annotation)>
<!ELEMENT buyer           (person)>
<!ELEMENT price           (#PCDATA)>
`
